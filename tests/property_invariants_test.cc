/**
 * @file
 * Property-based sweeps over cross-module invariants:
 *
 *  - lowering conserves work (FLOPs of the emitted kernels match the
 *    closed-form LSTM cost for every plan kind and random shape);
 *  - the simulator's monotonicities (more skip -> less time on the HW
 *    path; more cells -> more time; weaker GPUs -> more time);
 *  - the approximation knobs are monotone (larger alpha_intra skips
 *    more rows, larger alpha_inter breaks more links);
 *  - energy is internally consistent (components non-negative, total
 *    is their sum).
 */

#include <gtest/gtest.h>

#include "core/approx.hh"
#include "runtime/executor.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;

/** Closed-form FLOPs of one baseline LSTM layer inference. */
double
layerFlops(const runtime::LstmLayerShape &s)
{
    const double h = static_cast<double>(s.hiddenSize);
    const double e = static_cast<double>(s.inputSize);
    const double n = static_cast<double>(s.length);
    const double gemm_w = 2.0 * 4.0 * h * e * n;
    const double gemv_u = 2.0 * 4.0 * h * h * n;
    const double ew = 25.0 * h * n;
    return gemm_w + gemv_u + ew;
}

class LoweringProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LoweringProperty, FlopConservationAcrossPlans)
{
    tensor::Rng rng(GetParam());
    const runtime::LstmLayerShape shape{
        static_cast<std::size_t>(rng.integer(64, 640)),
        static_cast<std::size_t>(rng.integer(64, 640)),
        static_cast<std::size_t>(rng.integer(4, 60))};

    // Lowering keeps a reference to its config, so the config must
    // outlive it.
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    runtime::Lowering low(cfg);

    // Baseline: exact conservation.
    {
        runtime::ExecutionPlan plan;
        gpu::KernelTrace trace;
        low.lowerLayer(shape, plan, 0, trace);
        double flops = 0.0;
        for (const auto &k : trace)
            flops += k.flops;
        EXPECT_NEAR(flops / layerFlops(shape), 1.0, 1e-6);
    }

    // Inter-cell with full-size tissues: identical useful FLOPs plus
    // the small relevance-kernel overhead.
    {
        std::vector<std::size_t> sizes;
        for (std::size_t left = shape.length; left;) {
            const std::size_t t = std::min<std::size_t>(4, left);
            sizes.push_back(t);
            left -= t;
        }
        const runtime::ExecutionPlan plan = runtime::ExecutionPlan::preset(
            runtime::PlanKind::InterCell, 1, quant::QuantMode::Fp32,
            {sizes});
        gpu::KernelTrace trace;
        low.lowerLayer(shape, plan, 0, trace);
        double flops = 0.0;
        for (const auto &k : trace)
            flops += k.flops;
        EXPECT_GE(flops, layerFlops(shape) * 0.999);
        EXPECT_LE(flops, layerFlops(shape) * 1.05);
    }

    // DRS: useful FLOPs shrink by exactly the skipped share of U_fic.
    {
        const double skip = rng.uniform(0.1f, 0.9f);
        const runtime::ExecutionPlan plan = runtime::ExecutionPlan::preset(
            runtime::PlanKind::IntraCellHw, 1, quant::QuantMode::Fp32, {},
            {skip});
        gpu::KernelTrace trace;
        low.lowerLayer(shape, plan, 0, trace);
        double gemv_flops = 0.0;
        for (const auto &k : trace) {
            if (k.klass == gpu::KernelClass::Sgemv)
                gemv_flops += k.flops;
        }
        const double h = static_cast<double>(shape.hiddenSize);
        const double n = static_cast<double>(shape.length);
        const double expect =
            2.0 * h * h * n +                       // U_o part
            6.0 * h * n +                           // flag epilogue
            2.0 * 3.0 * h * h * n * (1.0 - skip);   // U_fic part
        EXPECT_NEAR(gemv_flops / expect, 1.0, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, LoweringProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

class SkipMonotonicity : public ::testing::TestWithParam<int>
{};

TEST_P(SkipMonotonicity, MoreSkipNeverSlowerOnHwPath)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    tensor::Rng rng(seed);
    const std::size_t hidden =
        static_cast<std::size_t>(rng.integer(128, 768));
    const auto shape = runtime::NetworkShape::stacked(hidden, hidden, 1,
                                                      16);
    runtime::NetworkExecutor ex(gpu::GpuConfig::tegraX1());

    double prev = 1e18;
    for (double skip : {0.0, 0.2, 0.4, 0.6, 0.8}) {
        const runtime::ExecutionPlan plan = runtime::ExecutionPlan::preset(
            runtime::PlanKind::IntraCellHw, 1, quant::QuantMode::Fp32, {},
            {skip});
        const double t = ex.run(shape, plan).result.timeUs;
        if (skip > 0.0) {
            EXPECT_LE(t, prev * 1.001) << "skip " << skip;
        }
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(Hidden, SkipMonotonicity,
                         ::testing::Range(1, 7));

TEST(SimulatorMonotonicity, LongerLayersTakeLonger)
{
    runtime::NetworkExecutor ex(gpu::GpuConfig::tegraX1());
    runtime::ExecutionPlan plan;
    double prev = 0.0;
    for (std::size_t n : {5u, 10u, 20u, 40u}) {
        const double t =
            ex.run(runtime::NetworkShape::stacked(256, 256, 1, n), plan)
                .result.timeUs;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(SimulatorMonotonicity, FasterGpuIsFaster)
{
    const auto shape = runtime::NetworkShape::stacked(512, 512, 2, 20);
    runtime::ExecutionPlan plan;
    const double tx1 =
        runtime::NetworkExecutor(gpu::GpuConfig::tegraX1())
            .run(shape, plan)
            .result.timeUs;
    const double tx2 =
        runtime::NetworkExecutor(gpu::GpuConfig::tegraX2Like())
            .run(shape, plan)
            .result.timeUs;
    EXPECT_LT(tx2, tx1);
}

class ThresholdMonotonicity
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ThresholdMonotonicity, KnobsAreMonotone)
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 24;
    cfg.embedSize = 10;
    cfg.hiddenSize = 14;
    cfg.numLayers = 2;
    cfg.numClasses = 2;
    const nn::LstmModel model(cfg, GetParam());

    core::ApproxRunner runner(model);
    tensor::Rng rng(GetParam() + 100);
    std::vector<std::vector<std::int32_t>> seqs(4);
    for (auto &s : seqs)
        for (int t = 0; t < 10; ++t)
            s.push_back(static_cast<std::int32_t>(rng.integer(0, 23)));
    runner.calibrate(seqs);

    // Larger alpha_intra -> monotonically larger skip fraction.
    double prev_skip = -1.0;
    for (double a : {0.0, 0.05, 0.2, 0.5, 0.9}) {
        runner.resetStats();
        runner.setThresholds(0.0, a);
        for (const auto &s : seqs)
            runner.classify(s);
        const double skip =
            runner.stats()[0].skipFraction(cfg.hiddenSize);
        EXPECT_GE(skip, prev_skip);
        prev_skip = skip;
    }

    // Larger alpha_inter -> monotonically larger break rate.
    double prev_break = -1.0;
    for (double a : {0.0, 10.0, 100.0, 400.0, 1e9}) {
        runner.resetStats();
        runner.setThresholds(a, 0.0);
        for (const auto &s : seqs)
            runner.classify(s);
        double rate = 0.0;
        for (const auto &st : runner.stats())
            rate += st.breakRate();
        EXPECT_GE(rate, prev_break);
        prev_break = rate;
    }
    EXPECT_DOUBLE_EQ(prev_break, 2.0);  // 1e9 breaks every link/layer
}

INSTANTIATE_TEST_SUITE_P(Models, ThresholdMonotonicity,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(EnergyConsistency, ComponentsNonNegativeAndSumUp)
{
    runtime::NetworkExecutor ex(gpu::GpuConfig::tegraX1());
    for (runtime::PlanKind kind :
         {runtime::PlanKind::Baseline, runtime::PlanKind::IntraCellHw}) {
        const runtime::ExecutionPlan plan = runtime::ExecutionPlan::preset(
            kind, 1, quant::QuantMode::Fp32, {}, {0.5});
        const auto r =
            ex.run(runtime::NetworkShape::stacked(256, 256, 1, 10),
                   plan)
                .result;
        const auto &e = r.energy;
        EXPECT_GE(e.staticJ, 0.0);
        EXPECT_GE(e.gpuDynamicJ, 0.0);
        EXPECT_GE(e.dramJ, 0.0);
        EXPECT_GE(e.onChipJ, 0.0);
        EXPECT_GE(e.crmJ, 0.0);
        EXPECT_NEAR(e.totalJ(),
                    e.staticJ + e.gpuDynamicJ + e.dramJ + e.onChipJ +
                        e.crmJ,
                    1e-12);
    }
}

} // namespace
