/**
 * @file
 * Tests for the LSTM-to-kernel lowering: kernel counts per flow
 * (Algorithm 1, Section IV-D tissues, Algorithm 3 DRS), traffic
 * accounting, and the plan containers.
 */

#include <gtest/gtest.h>

#include "gpu/simulator.hh"
#include "runtime/executor.hh"
#include "runtime/lowering.hh"
#include "runtime/plan.hh"

namespace {

using namespace mflstm;
using namespace mflstm::runtime;

const gpu::GpuConfig kCfg = gpu::GpuConfig::tegraX1();

LstmLayerShape
layer512()
{
    return {512, 512, 10};
}

/** Tissues of @p k cells covering @p length cells, per layer. */
std::vector<std::vector<std::size_t>>
uniformTissues(std::size_t layers, std::size_t length, std::size_t k)
{
    std::vector<std::size_t> sizes;
    for (std::size_t left = length; left;) {
        const std::size_t t = std::min(k, left);
        sizes.push_back(t);
        left -= t;
    }
    return std::vector<std::vector<std::size_t>>(layers, sizes);
}

ExecutionPlan
uniformInterPlan(std::size_t layers, std::size_t length, std::size_t k)
{
    return ExecutionPlan::preset(PlanKind::InterCell, layers,
                                 quant::QuantMode::Fp32,
                                 uniformTissues(layers, length, k));
}

/** A one-layer preset plan at @p qm. */
ExecutionPlan
onePreset(PlanKind kind, quant::QuantMode qm = quant::QuantMode::Fp32,
          const std::vector<std::vector<std::size_t>> &tissues = {},
          const std::vector<double> &skips = {}, double prune = 0.0)
{
    return ExecutionPlan::preset(kind, 1, qm, tissues, skips, prune);
}

TEST(Plan, NetworkShapeStacked)
{
    const NetworkShape s = NetworkShape::stacked(256, 512, 3, 20);
    ASSERT_EQ(s.layers.size(), 3u);
    EXPECT_EQ(s.layers[0].inputSize, 256u);
    EXPECT_EQ(s.layers[1].inputSize, 512u);
    EXPECT_EQ(s.layers[2].hiddenSize, 512u);
    EXPECT_EQ(s.layers[0].length, 20u);
    EXPECT_THROW(NetworkShape::stacked(0, 1, 1, 1),
                 std::invalid_argument);
}

TEST(Plan, InterPlanAccounting)
{
    // Tissue kinds take each layer's sizes; a layer beyond the tissue
    // vector stays dense.
    const ExecutionPlan p = ExecutionPlan::preset(
        PlanKind::InterCell, 2, quant::QuantMode::Fp32, {{5, 5, 3, 1}});
    ASSERT_EQ(p.decisions.layers.size(), 2u);
    EXPECT_EQ(p.layerSchedule(0).tissueSizes,
              (std::vector<std::size_t>{5, 5, 3, 1}));
    EXPECT_TRUE(p.layerSchedule(0).usesTissues());
    EXPECT_FALSE(p.layerSchedule(1).usesTissues());
}

TEST(Plan, KindPredicates)
{
    EXPECT_TRUE(presetUsesTissues(PlanKind::Combined));
    EXPECT_TRUE(presetUsesSkip(PlanKind::Combined));
    EXPECT_TRUE(onePreset(PlanKind::Combined, quant::QuantMode::Fp32,
                          {{2, 2}}, {0.3})
                    .usesCrmHardware());

    EXPECT_FALSE(presetUsesTissues(PlanKind::IntraCellSw));
    EXPECT_TRUE(presetUsesSkip(PlanKind::IntraCellSw));
    EXPECT_FALSE(onePreset(PlanKind::IntraCellSw, quant::QuantMode::Fp32,
                           {}, {0.3})
                     .usesCrmHardware());

    EXPECT_TRUE(presetUsesTissues(PlanKind::Persistent));
    EXPECT_FALSE(presetUsesSkip(PlanKind::Persistent));

    EXPECT_FALSE(presetUsesTissues(PlanKind::Baseline));
    EXPECT_FALSE(presetUsesSkip(PlanKind::Baseline));
}

TEST(Lowering, BaselineKernelCountsMatchAlgorithm1)
{
    Lowering low(kCfg);
    ExecutionPlan plan;  // baseline
    gpu::KernelTrace trace;
    low.lowerLayer(layer512(), plan, 0, trace);

    // 1 input Sgemm + per cell (Sgemv + lstm_ew).
    ASSERT_EQ(trace.size(), 1u + 2u * 10u);
    EXPECT_EQ(trace[0].klass, gpu::KernelClass::Sgemm);
    for (std::size_t t = 0; t < 10; ++t) {
        EXPECT_EQ(trace[1 + 2 * t].klass, gpu::KernelClass::Sgemv);
        EXPECT_EQ(trace[2 + 2 * t].klass, gpu::KernelClass::ElementWise);
    }
}

TEST(Lowering, StoresEachLoopInvariantKernelOnce)
{
    Lowering low(kCfg);

    // Baseline per-cell layer: input Sgemm, Sgemv and lstm_ew are stored
    // once (layer stamped, no timestep/tissue) for 1 + 2T launches.
    {
        gpu::KernelTrace trace;
        low.lowerLayer(layer512(), ExecutionPlan{}, 2, trace);
        ASSERT_EQ(trace.kernels().size(), 3u);
        ASSERT_EQ(trace.size(), 1u + 2u * 10u);
        for (const gpu::KernelDesc &k : trace.kernels()) {
            EXPECT_EQ(k.layer, 2);
            EXPECT_EQ(k.timestep, -1);
            EXPECT_EQ(k.tissue, -1);
        }
        const auto &launches = trace.launches();
        for (std::size_t t = 0; t < 10; ++t) {
            EXPECT_EQ(launches[1 + 2 * t].kernel, launches[1].kernel);
            EXPECT_EQ(launches[2 + 2 * t].kernel, launches[2].kernel);
            EXPECT_EQ(launches[1 + 2 * t].timestep, static_cast<int>(t));
            EXPECT_EQ(trace[2 + 2 * t].timestep, static_cast<int>(t));
            EXPECT_EQ(trace[2 + 2 * t].layer, 2);
        }
    }

    // Standalone DRS: both lstm_ew launches of a step share one kernel.
    {
        gpu::KernelTrace trace;
        low.lowerLayer(layer512(),
                       onePreset(PlanKind::IntraCellSw,
                                 quant::QuantMode::Fp32, {}, {0.5}),
                       0, trace);
        EXPECT_EQ(trace.kernels().size(), 5u);
        EXPECT_EQ(trace.size(), 1u + 5u * 10u);
    }

    // Tissue layer: one kernel group per distinct tissue size.
    {
        gpu::KernelTrace trace;
        low.lowerLayer(layer512(),
                       onePreset(PlanKind::Combined,
                                 quant::QuantMode::Fp32, {{4, 4, 2}},
                                 {0.5}),
                       0, trace);
        // input + relevance + 2 sizes x (gather, U_o, U_fic, ew)
        ASSERT_EQ(trace.kernels().size(), 2u + 2u * 4u);
        ASSERT_EQ(trace.size(), 2u + 3u * 4u);
        const auto &launches = trace.launches();
        for (std::size_t k = 0; k < 4; ++k) {
            EXPECT_EQ(launches[2 + k].kernel, launches[6 + k].kernel);
            EXPECT_NE(launches[2 + k].kernel, launches[10 + k].kernel);
            EXPECT_EQ(launches[6 + k].tissue, 1);
            EXPECT_EQ(launches[6 + k].timestep, 4);
            EXPECT_EQ(launches[10 + k].tissue, 2);
            EXPECT_EQ(launches[10 + k].timestep, 8);
        }
    }

    // PTB combined fp32 (3 x 650, 200 steps) as the planner divides it:
    // layer 0 finds no breakpoints and runs per cell, layers 1 and 2
    // run tissues of four. 16 stored kernels serve 1,005 launches.
    {
        const NetworkShape ptb = NetworkShape::stacked(650, 650, 3, 200);
        const std::vector<std::size_t> ones(200, 1);
        const std::vector<std::size_t> fours(50, 4);
        const ExecutionPlan plan = ExecutionPlan::preset(
            PlanKind::Combined, 3, quant::QuantMode::Fp32,
            {ones, fours, fours}, {0.35, 0.35, 0.35});
        const gpu::KernelTrace trace = low.lower(ptb, plan);
        EXPECT_EQ(trace.kernels().size(), 16u);
        EXPECT_EQ(trace.size(), 1005u);
    }
}

TEST(Lowering, BaselineWeightTrafficThrashes)
{
    Lowering low(kCfg);
    ExecutionPlan plan;
    gpu::KernelTrace trace;
    low.lowerLayer(layer512(), plan, 0, trace);

    // The 4.19 MB united U exceeds the 256 KB L2: each of the 10 cells
    // re-streams nearly the whole matrix (Section III-A).
    const double u_bytes = 4.0 * 512 * 512 * 4;
    double dram = 0.0;
    for (const auto &k : trace) {
        if (k.klass == gpu::KernelClass::Sgemv)
            dram += k.dramReadBytes;
    }
    EXPECT_GT(dram, 0.9 * 10.0 * u_bytes);
}

TEST(Lowering, InterCellEmitsPerTissueKernels)
{
    Lowering low(kCfg);
    const ExecutionPlan plan = uniformInterPlan(1, 10, 5);
    gpu::KernelTrace trace;
    low.lowerLayer(layer512(), plan, 0, trace);

    // 1 input Sgemm + 1 relevance + 2 tissues x (gather + Sgemm + ew).
    ASSERT_EQ(trace.size(), 2u + 2u * 3u);
    EXPECT_EQ(trace[1].klass, gpu::KernelClass::Relevance);
    EXPECT_EQ(trace[3].klass, gpu::KernelClass::Sgemm);
}

TEST(Lowering, InterCellReducesWeightTraffic)
{
    NetworkExecutor ex(kCfg);
    const NetworkShape shape = NetworkShape::stacked(512, 512, 1, 20);

    ExecutionPlan base;
    const RunReport rb = ex.run(shape, base);
    const RunReport ri = ex.run(shape, uniformInterPlan(1, 20, 5));

    // One weight load per tissue instead of per cell: ~5x less DRAM.
    EXPECT_LT(ri.result.dramBytes, rb.result.dramBytes / 3.0);
    EXPECT_GT(speedup(rb, ri), 2.0);
}

TEST(Lowering, InterPlanMustCoverLayer)
{
    Lowering low(kCfg);
    ExecutionPlan plan = uniformInterPlan(1, 8, 4);  // covers 8, not 10
    gpu::KernelTrace trace;
    EXPECT_THROW(low.lowerLayer(layer512(), plan, 0, trace),
                 std::invalid_argument);
}

TEST(Lowering, AllOnesTissuesFallBackToPerCellFlow)
{
    Lowering low(kCfg);
    const ExecutionPlan plan = uniformInterPlan(1, 10, 1);
    gpu::KernelTrace trace;
    low.lowerLayer(layer512(), plan, 0, trace);
    // Indistinguishable from the baseline: no gather/relevance overhead.
    ASSERT_EQ(trace.size(), 1u + 2u * 10u);
    EXPECT_EQ(trace[1].klass, gpu::KernelClass::Sgemv);
}

TEST(Lowering, DrsFlowMatchesAlgorithm3)
{
    Lowering low(kCfg);
    const ExecutionPlan plan =
        onePreset(PlanKind::IntraCellSw, quant::QuantMode::Fp32, {}, {0.5});
    gpu::KernelTrace trace;
    low.lowerLayer(layer512(), plan, 0, trace);

    // Software path, 1 input Sgemm + per cell: Sgemv(U_o), ew, DRS
    // scan, Sgemv(U_fic, R), ew.
    ASSERT_EQ(trace.size(), 1u + 5u * 10u);
    EXPECT_EQ(trace[1].klass, gpu::KernelClass::Sgemv);
    EXPECT_EQ(trace[2].klass, gpu::KernelClass::ElementWise);
    EXPECT_EQ(trace[3].klass, gpu::KernelClass::Drs);
    EXPECT_EQ(trace[4].klass, gpu::KernelClass::Sgemv);
    EXPECT_TRUE(trace[4].hasRowSkipArg);
    EXPECT_FALSE(trace[4].divergenceFactor == 1.0);
    EXPECT_EQ(trace[5].klass, gpu::KernelClass::ElementWise);
}

TEST(Lowering, CrmFlowFusesTheScanIntoTheGateEpilogue)
{
    Lowering low(kCfg);
    const ExecutionPlan plan =
        onePreset(PlanKind::IntraCellHw, quant::QuantMode::Fp32, {}, {0.5});
    gpu::KernelTrace trace;
    low.lowerLayer(layer512(), plan, 0, trace);

    // With the CRM the relevance flags come out of the U_o epilogue and
    // are compacted in the dispatch stage: no scan kernel, one ew.
    ASSERT_EQ(trace.size(), 1u + 3u * 10u);
    EXPECT_EQ(trace[1].klass, gpu::KernelClass::Sgemv);
    EXPECT_EQ(trace[1].name, "Sgemv(U_o, h)+flags");
    EXPECT_EQ(trace[2].klass, gpu::KernelClass::Sgemv);
    EXPECT_TRUE(trace[2].hasRowSkipArg);
    EXPECT_DOUBLE_EQ(trace[2].divergenceFactor, 1.0);
    EXPECT_EQ(trace[3].klass, gpu::KernelClass::ElementWise);
    for (const gpu::KernelDesc &k : trace)
        EXPECT_NE(k.klass, gpu::KernelClass::Drs);
}

TEST(Lowering, CombinedFlowSplitsTheTissueGemm)
{
    Lowering low(kCfg);
    const ExecutionPlan plan = onePreset(
        PlanKind::Combined, quant::QuantMode::Fp32, {{5, 5}}, {0.5});

    gpu::KernelTrace trace;
    low.lowerLayer({512, 512, 10}, plan, 0, trace);

    // input Sgemm + relevance + 2 tissues x (gather, Sgemm(U_o)+flags,
    // Sgemm(U_fic,R), ew): Combined always dispatches through the CRM,
    // so the scan rides the U_o epilogue and no Drs kernel launches.
    ASSERT_EQ(trace.size(), 2u + 2u * 4u);
    const gpu::KernelDesc &uo = trace[3];
    const gpu::KernelDesc &fic = trace[4];
    EXPECT_EQ(uo.name, "Sgemm(U_o, H_t)+flags");
    EXPECT_EQ(fic.name, "Sgemm(U_fic, H_t, R)");
    EXPECT_FALSE(uo.hasRowSkipArg);
    EXPECT_TRUE(fic.hasRowSkipArg);
    // U_o is a quarter of the united matrix's work.
    EXPECT_NEAR(uo.flops / (uo.flops + fic.flops / 0.5 * 1.0), 0.25,
                0.1);
    EXPECT_EQ(trace[5].klass, gpu::KernelClass::ElementWise);
    for (const gpu::KernelDesc &k : trace)
        EXPECT_NE(k.klass, gpu::KernelClass::Drs);
}

TEST(Lowering, CombinedWeightTrafficBelowInterAlone)
{
    // DRS inside the tissue saves compute/on-chip traffic, and a small
    // amount of weight traffic (rows trivial in *every* cell).
    NetworkExecutor ex(kCfg);
    const auto shape = NetworkShape::stacked(512, 512, 1, 20);

    const ExecutionPlan inter = uniformInterPlan(1, 20, 5);
    const ExecutionPlan comb =
        onePreset(PlanKind::Combined, quant::QuantMode::Fp32,
                  uniformTissues(1, 20, 5), {0.6});

    const RunReport ri = ex.run(shape, inter);
    const RunReport rc = ex.run(shape, comb);
    EXPECT_LE(rc.result.dramBytes, ri.result.dramBytes * 1.02);
    EXPECT_LT(rc.result.sharedBytes, ri.result.sharedBytes);
    EXPECT_LT(rc.result.flops, ri.result.flops);
}

TEST(Lowering, HwSkipSavesBandwidthSwBarely)
{
    Lowering low(kCfg);
    const LstmLayerShape shape = layer512();
    const double fic = 3.0 * 512 * 512 * 4;

    const auto hw = low.rowSkipSgemv(shape, fic, 0.6, true);
    const auto sw = low.rowSkipSgemv(shape, fic, 0.6, false);

    EXPECT_NEAR(hw.dramReadBytes, fic * 0.4 + 512 * 4, 1.0);
    EXPECT_GT(sw.dramReadBytes, fic * 0.9);       // coalescing waste
    EXPECT_GT(sw.divergenceFactor, 1.5);          // divergent warps
    EXPECT_DOUBLE_EQ(hw.divergenceFactor, 1.0);   // compacted
    EXPECT_EQ(hw.disabledThreads, sw.disabledThreads);
    EXPECT_TRUE(hw.hasRowSkipArg);
}

TEST(Lowering, RowSkipRejectsBadFraction)
{
    Lowering low(kCfg);
    EXPECT_THROW(low.rowSkipSgemv(layer512(), 1.0, 1.5, true),
                 std::invalid_argument);
}

TEST(Lowering, ZeroPruningPaysDivergenceAndCoalescing)
{
    NetworkExecutor ex(kCfg);
    const NetworkShape shape = NetworkShape::stacked(512, 512, 1, 20);

    ExecutionPlan base;
    const ExecutionPlan zp = onePreset(
        PlanKind::ZeroPruning, quant::QuantMode::Fp32, {}, {}, 0.37);

    const RunReport rb = ex.run(shape, base);
    const RunReport rz = ex.run(shape, zp);
    // Fig. 16: zero-pruning *degrades* performance on the GPU.
    EXPECT_LT(speedup(rb, rz), 1.0);
}

TEST(Lowering, QuantizedPlanShrinksWeightTraffic)
{
    NetworkExecutor ex(kCfg);
    const NetworkShape shape = NetworkShape::stacked(512, 512, 1, 20);

    const ExecutionPlan fp32;
    const ExecutionPlan q8 =
        onePreset(PlanKind::Baseline, quant::QuantMode::Int8);
    const ExecutionPlan q4 =
        onePreset(PlanKind::Baseline, quant::QuantMode::Int4);

    const RunReport rf = ex.run(shape, fp32);
    const RunReport r8 = ex.run(shape, q8);
    const RunReport r4 = ex.run(shape, q4);

    // 4 B -> 1 B weights plus a 4 B/row scale stream shrink the
    // footprint just under 4x; *traffic* compresses a little more than
    // that because the smaller block also caches better in L2.
    const double c8 = rf.result.weightDramBytes / r8.result.weightDramBytes;
    const double c4 = rf.result.weightDramBytes / r4.result.weightDramBytes;
    EXPECT_GT(c8, 3.0);
    EXPECT_LT(c8, 8.0);
    EXPECT_GT(c4, c8);

    // Dequant work is accounted only for quantized runs.
    EXPECT_EQ(rf.result.quantWeightElems, 0.0);
    EXPECT_GT(r8.result.quantWeightElems, 0.0);

    // The memory-bound Sgemv phases get faster, never slower.
    EXPECT_LT(r8.result.timeUs, rf.result.timeUs);
}

TEST(Lowering, QuantizedKernelsAreTagged)
{
    Lowering low(kCfg);
    const ExecutionPlan plan =
        onePreset(PlanKind::Baseline, quant::QuantMode::Int8);
    gpu::KernelTrace trace;
    low.lowerLayer(layer512(), plan, 0, trace);

    bool tagged = false;
    for (const gpu::KernelDesc &k : trace)
        tagged = tagged || k.name.find("[int8]") != std::string::npos;
    EXPECT_TRUE(tagged);
}

TEST(Lowering, ZeroPruningIgnoresQuantMode)
{
    // The CSR comparator is defined at fp32 (DESIGN.md §12): stamping a
    // quant mode on a ZeroPruning plan must not change its traffic.
    NetworkExecutor ex(kCfg);
    const NetworkShape shape = NetworkShape::stacked(512, 512, 1, 20);

    const ExecutionPlan zp = onePreset(
        PlanKind::ZeroPruning, quant::QuantMode::Fp32, {}, {}, 0.37);
    const ExecutionPlan zp_q8 = onePreset(
        PlanKind::ZeroPruning, quant::QuantMode::Int8, {}, {}, 0.37);

    const RunReport rz = ex.run(shape, zp);
    const RunReport rq = ex.run(shape, zp_q8);
    EXPECT_DOUBLE_EQ(rq.result.weightDramBytes, rz.result.weightDramBytes);
    EXPECT_DOUBLE_EQ(rq.result.timeUs, rz.result.timeUs);
    EXPECT_EQ(rq.result.quantWeightElems, 0.0);
}

TEST(Lowering, QuantComposesWithCombinedPlan)
{
    // INT8 on top of tissues + DRS keeps shrinking the weight stream:
    // the composition must beat both standalone techniques (the Fig. 16
    // extension's acceptance gate, here at the lowering level).
    NetworkExecutor ex(kCfg);
    const NetworkShape shape = NetworkShape::stacked(512, 512, 1, 20);

    const ExecutionPlan base;
    const ExecutionPlan q8 =
        onePreset(PlanKind::Baseline, quant::QuantMode::Int8);
    const ExecutionPlan comb =
        onePreset(PlanKind::Combined, quant::QuantMode::Fp32,
                  uniformTissues(1, 20, 5), {0.5});
    const ExecutionPlan comb_q8 =
        onePreset(PlanKind::Combined, quant::QuantMode::Int8,
                  uniformTissues(1, 20, 5), {0.5});

    const RunReport rb = ex.run(shape, base);
    const RunReport r8 = ex.run(shape, q8);
    const RunReport rc = ex.run(shape, comb);
    const RunReport rcq = ex.run(shape, comb_q8);

    EXPECT_LT(rcq.result.weightDramBytes, rc.result.weightDramBytes);
    EXPECT_GT(speedup(rb, rcq), speedup(rb, rc));
    EXPECT_GT(speedup(rb, rcq), speedup(rb, r8));
}

TEST(Lowering, SharedBytesPerMacCalibration)
{
    // Narrow tissue GEMMs pay more on-chip traffic than wide GEMMs,
    // and small hidden sizes less than large ones.
    EXPECT_LT(sgemmSharedBytesPerMac(512, 80),
              sgemmSharedBytesPerMac(512, 5));
    EXPECT_LT(sgemmSharedBytesPerMac(256, 5),
              sgemmSharedBytesPerMac(512, 5));
}

TEST(Executor, RunLayerMatchesManualLowering)
{
    NetworkExecutor ex(kCfg);
    ExecutionPlan plan;
    const RunReport r = ex.runLayer(layer512(), plan, 0);
    EXPECT_EQ(r.result.kernelCount, 1u + 2u * 10u);
    EXPECT_GT(r.result.timeUs, 0.0);
}

TEST(Executor, SpeedupAndSavingGuards)
{
    RunReport base;
    base.result.timeUs = 0.0;
    RunReport opt = base;
    EXPECT_THROW(speedup(base, opt), std::invalid_argument);
    EXPECT_THROW(energySavingPct(base, opt), std::invalid_argument);
}

} // namespace
