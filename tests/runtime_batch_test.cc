/**
 * @file
 * Tests for the batch dimension of the lowering and executor: weight
 * bytes charged once per batched kernel, activation traffic and work
 * scaled by the batch, exact amortisation on the baseline flow, and
 * the RunRequest descriptor plumbing.
 */

#include <gtest/gtest.h>

#include "runtime/executor.hh"
#include "runtime/lowering.hh"

namespace {

using namespace mflstm;
using namespace mflstm::runtime;

const gpu::GpuConfig kCfg = gpu::GpuConfig::tegraX1();

NetworkShape
shape2x512()
{
    return NetworkShape::stacked(512, 512, 2, 10);
}

ExecutionPlan
drsPlan(std::size_t layers, double skip, PlanKind kind)
{
    return ExecutionPlan::preset(kind, layers, quant::QuantMode::Fp32, {},
                                 std::vector<double>(layers, skip));
}

TEST(BatchedLowering, BaselineWeightBytesChargedOnce)
{
    const Lowering lowering(kCfg);
    const ExecutionPlan plan;  // Baseline
    const gpu::KernelTrace one = lowering.lower(shape2x512(), plan, 1);
    const gpu::KernelTrace four = lowering.lower(shape2x512(), plan, 4);
    ASSERT_EQ(one.size(), four.size());

    for (std::size_t i = 0; i < one.size(); ++i) {
        const gpu::KernelDesc &a = one[i];
        const gpu::KernelDesc &b = four[i];
        // Weights stream once per kernel, whatever the batch.
        EXPECT_DOUBLE_EQ(b.dramWeightBytes, a.dramWeightBytes) << a.name;
        // Work and activation traffic scale with the batch.
        EXPECT_DOUBLE_EQ(b.flops, 4.0 * a.flops) << a.name;
        EXPECT_DOUBLE_EQ(b.dramReadBytes - b.dramWeightBytes,
                         4.0 * (a.dramReadBytes - a.dramWeightBytes))
            << a.name;
        EXPECT_DOUBLE_EQ(b.dramWriteBytes, 4.0 * a.dramWriteBytes)
            << a.name;
        EXPECT_EQ(b.ctas, 4u * a.ctas) << a.name;
        // Batched kernels are visibly tagged.
        EXPECT_NE(b.name.find(" x4"), std::string::npos) << b.name;
        EXPECT_EQ(a.name.find(" x4"), std::string::npos) << a.name;
    }
}

TEST(BatchedLowering, WeightShareStaysWithinReads)
{
    const Lowering lowering(kCfg);
    for (PlanKind kind :
         {PlanKind::Baseline, PlanKind::IntraCellSw,
          PlanKind::IntraCellHw}) {
        const ExecutionPlan plan = drsPlan(2, 0.4, kind);
        for (std::size_t b : {1u, 3u, 8u}) {
            for (const gpu::KernelDesc &k :
                 lowering.lower(shape2x512(), plan, b)) {
                EXPECT_GE(k.dramWeightBytes, 0.0) << k.name;
                EXPECT_LE(k.dramWeightBytes, k.dramReadBytes + 1e-9)
                    << k.name << " batch " << b;
            }
        }
    }
}

TEST(BatchedLowering, ZeroBatchRejected)
{
    const Lowering lowering(kCfg);
    EXPECT_THROW(lowering.lower(shape2x512(), ExecutionPlan{}, 0),
                 std::invalid_argument);

    const NetworkExecutor ex(kCfg);
    RunRequest req = RunRequest::network(shape2x512(), ExecutionPlan{});
    req.batch = 0;
    EXPECT_THROW(ex.run(req), std::invalid_argument);
}

TEST(BatchedExecutor, TraceAccumulatesWeightBytes)
{
    const NetworkExecutor ex(kCfg);
    const ExecutionPlan plan = drsPlan(2, 0.3, PlanKind::IntraCellHw);
    const RunReport rep =
        ex.run(RunRequest::network(shape2x512(), plan, 3));

    double expected = 0.0;
    for (const gpu::KernelDesc &k :
         ex.lowering().lower(shape2x512(), plan, 3))
        expected += k.dramWeightBytes;
    EXPECT_DOUBLE_EQ(rep.result.weightDramBytes, expected);
    EXPECT_GT(rep.result.weightDramBytes, 0.0);
    EXPECT_EQ(rep.batch, 3u);
}

TEST(BatchedExecutor, BaselineAmortisationIsExact)
{
    const NetworkExecutor ex(kCfg);
    const RunReport one =
        ex.run(RunRequest::network(shape2x512(), ExecutionPlan{}, 1));
    for (std::size_t b : {2u, 4u, 8u}) {
        const RunReport rep = ex.run(
            RunRequest::network(shape2x512(), ExecutionPlan{}, b));
        // Baseline weight traffic is batch-invariant, so per-sequence
        // bytes divide exactly.
        EXPECT_DOUBLE_EQ(rep.result.weightDramBytes,
                         one.result.weightDramBytes);
        EXPECT_DOUBLE_EQ(rep.weightDramBytesPerSequence(),
                         one.result.weightDramBytes /
                             static_cast<double>(b));
    }
}

TEST(BatchedExecutor, DrsOverlapKeepsPerSequenceMonotone)
{
    // With DRS, a weight row stays on the bus unless *every* sequence
    // in the batch skips it, so total weight traffic grows with the
    // batch — but per-sequence traffic must still fall.
    const NetworkExecutor ex(kCfg);
    const ExecutionPlan plan = drsPlan(2, 0.5, PlanKind::IntraCellHw);

    double prev_total = 0.0;
    double prev_per_seq = 0.0;
    for (std::size_t b = 1; b <= 8; ++b) {
        const RunReport rep =
            ex.run(RunRequest::network(shape2x512(), plan, b));
        const double total = rep.result.weightDramBytes;
        const double per_seq = rep.weightDramBytesPerSequence();
        if (b > 1) {
            EXPECT_GE(total, prev_total) << "batch " << b;
            EXPECT_LT(per_seq, prev_per_seq) << "batch " << b;
        }
        prev_total = total;
        prev_per_seq = per_seq;
    }
}

TEST(BatchedExecutor, BatchOneMatchesLegacyEntryPoints)
{
    const NetworkExecutor ex(kCfg);
    const ExecutionPlan plan = drsPlan(2, 0.4, PlanKind::IntraCellSw);

    const RunReport legacy = ex.run(shape2x512(), plan);
    const RunReport req =
        ex.run(RunRequest::network(shape2x512(), plan, 1));
    EXPECT_DOUBLE_EQ(legacy.result.timeUs, req.result.timeUs);
    EXPECT_DOUBLE_EQ(legacy.result.weightDramBytes,
                     req.result.weightDramBytes);

    const LstmLayerShape layer{512, 512, 10};
    const RunReport legacy_layer = ex.runLayer(layer, plan, 1);
    const RunReport req_layer =
        ex.run(RunRequest::layer(layer, plan, 1));
    EXPECT_DOUBLE_EQ(legacy_layer.result.timeUs,
                     req_layer.result.timeUs);
}

} // namespace
