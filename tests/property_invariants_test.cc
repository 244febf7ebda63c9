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
 *    is their sum);
 *  - a trace that stores each loop-invariant kernel once simulates and
 *    records exactly like its expansion into one kernel per launch.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "core/approx.hh"
#include "hw/backend.hh"
#include "runtime/executor.hh"
#include "tensor/rng.hh"
#include "workloads/benchmarks.hh"

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

// --- Shared-descriptor traces ---------------------------------------------

constexpr runtime::PlanKind kPresets[] = {
    runtime::PlanKind::Baseline,    runtime::PlanKind::InterCell,
    runtime::PlanKind::IntraCellSw, runtime::PlanKind::IntraCellHw,
    runtime::PlanKind::Combined,    runtime::PlanKind::ZeroPruning,
    runtime::PlanKind::Persistent,
};

constexpr quant::QuantMode kModes[] = {quant::QuantMode::Fp32,
                                       quant::QuantMode::Int8};

/**
 * Structurally complete preset for @p kind (the golden-trace
 * construction): aligned tissues of four cells, a 35% skip, 30% pruning.
 */
runtime::ExecutionPlan
presetFor(runtime::PlanKind kind, const runtime::NetworkShape &shape,
          quant::QuantMode qm)
{
    std::vector<std::vector<std::size_t>> tissues;
    for (const runtime::LstmLayerShape &layer : shape.layers) {
        std::vector<std::size_t> &sizes = tissues.emplace_back();
        for (std::size_t left = layer.length; left > 0;) {
            const std::size_t t = std::min<std::size_t>(4, left);
            sizes.push_back(t);
            left -= t;
        }
    }
    return runtime::ExecutionPlan::preset(
        kind, shape.layers.size(), qm, tissues,
        std::vector<double>(shape.layers.size(), 0.35), 0.3);
}

/** @p trace with every launch stored as its own kernel. */
gpu::KernelTrace
expanded(const gpu::KernelTrace &trace)
{
    gpu::KernelTrace out;
    out.reserve(trace.size());
    for (const gpu::KernelDesc &k : trace)
        out.launch(out.add(k), k.timestep, k.tissue);
    return out;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectBitIdentical(const gpu::TraceResult &a, const gpu::TraceResult &b)
{
    EXPECT_EQ(bits(a.timeUs), bits(b.timeUs));
    EXPECT_EQ(bits(a.cycles), bits(b.cycles));
    EXPECT_EQ(bits(a.computeCycles), bits(b.computeCycles));
    EXPECT_EQ(a.kernelCount, b.kernelCount);
    EXPECT_EQ(bits(a.stalls.offChipMemory), bits(b.stalls.offChipMemory));
    EXPECT_EQ(bits(a.stalls.onChipBandwidth),
              bits(b.stalls.onChipBandwidth));
    EXPECT_EQ(bits(a.stalls.synchronization),
              bits(b.stalls.synchronization));
    EXPECT_EQ(bits(a.stalls.executionDependency),
              bits(b.stalls.executionDependency));
    EXPECT_EQ(bits(a.stalls.other), bits(b.stalls.other));
    EXPECT_EQ(bits(a.flops), bits(b.flops));
    EXPECT_EQ(bits(a.dramBytes), bits(b.dramBytes));
    EXPECT_EQ(bits(a.l2Bytes), bits(b.l2Bytes));
    EXPECT_EQ(bits(a.sharedBytes), bits(b.sharedBytes));
    EXPECT_EQ(bits(a.weightDramBytes), bits(b.weightDramBytes));
    EXPECT_EQ(bits(a.quantWeightElems), bits(b.quantWeightElems));
    EXPECT_EQ(bits(a.dramUtilization), bits(b.dramUtilization));
    EXPECT_EQ(bits(a.sharedUtilization), bits(b.sharedUtilization));
    ASSERT_EQ(a.timePerClassUs.size(), b.timePerClassUs.size());
    for (auto ia = a.timePerClassUs.begin(), ib = b.timePerClassUs.begin();
         ia != a.timePerClassUs.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(bits(ia->second), bits(ib->second));
    }
    EXPECT_EQ(a.kernelsPerClass, b.kernelsPerClass);
    EXPECT_EQ(bits(a.crmCycles), bits(b.crmCycles));
    EXPECT_EQ(a.kernelsThroughCrm, b.kernelsThroughCrm);
    EXPECT_EQ(bits(a.energy.staticJ), bits(b.energy.staticJ));
    EXPECT_EQ(bits(a.energy.gpuDynamicJ), bits(b.energy.gpuDynamicJ));
    EXPECT_EQ(bits(a.energy.dramJ), bits(b.energy.dramJ));
    EXPECT_EQ(bits(a.energy.onChipJ), bits(b.energy.onChipJ));
    EXPECT_EQ(bits(a.energy.crmJ), bits(b.energy.crmJ));
}

TEST(TraceSharing, SharedTraceSimulatesLikeItsExpansion)
{
    for (const std::string &backend : hw::registry().names()) {
        const gpu::GpuConfig &cfg = hw::registry().get(backend).config;
        const runtime::Lowering low(cfg);
        for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
            const runtime::NetworkShape shape = spec.timingShape();
            for (runtime::PlanKind kind : kPresets)
                for (quant::QuantMode qm : kModes)
                    for (std::size_t batch : {1u, 3u}) {
                        SCOPED_TRACE(backend + "/" + spec.name + "/" +
                                     runtime::toString(kind) + "/" +
                                     quant::toString(qm) + "/b" +
                                     std::to_string(batch));
                        const runtime::ExecutionPlan plan =
                            presetFor(kind, shape, qm);
                        const gpu::KernelTrace trace =
                            low.lower(shape, plan, batch);
                        gpu::Simulator shared(cfg, plan.usesCrmHardware());
                        gpu::Simulator flat(cfg, plan.usesCrmHardware());
                        expectBitIdentical(
                            shared.runTrace(trace),
                            flat.runTrace(expanded(trace)));
                        EXPECT_EQ(shared.gmu().kernelsDispatched(),
                                  trace.size());
                        EXPECT_EQ(shared.gmu().kernelsThroughCrm(),
                                  flat.gmu().kernelsThroughCrm());
                    }
        }
    }
}

void
expectSameSpans(const std::vector<obs::TraceSpan> &a,
                const std::vector<obs::TraceSpan> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].category, b[i].category);
        EXPECT_EQ(a[i].pid, b[i].pid);
        EXPECT_EQ(a[i].tid, b[i].tid);
        EXPECT_EQ(bits(a[i].startUs), bits(b[i].startUs));
        EXPECT_EQ(bits(a[i].durUs), bits(b[i].durUs));
        ASSERT_EQ(a[i].numArgs.size(), b[i].numArgs.size());
        for (std::size_t j = 0; j < a[i].numArgs.size(); ++j) {
            EXPECT_EQ(a[i].numArgs[j].first, b[i].numArgs[j].first);
            EXPECT_EQ(bits(a[i].numArgs[j].second),
                      bits(b[i].numArgs[j].second));
        }
        EXPECT_EQ(a[i].strArgs, b[i].strArgs);
    }
}

void
expectSameLedger(const obs::TrafficLedger &a, const obs::TrafficLedger &b)
{
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(bits(a.attributedDramBytes()), bits(b.attributedDramBytes()));
    EXPECT_EQ(a.verifyConservation(a.attributedDramBytes()),
              b.verifyConservation(b.attributedDramBytes()));
    const auto ta = a.traffic(), tb = b.traffic();
    ASSERT_EQ(ta.size(), tb.size());
    for (auto ia = ta.begin(), ib = tb.begin(); ia != ta.end();
         ++ia, ++ib) {
        EXPECT_TRUE(ia->first == ib->first);
        EXPECT_EQ(bits(ia->second), bits(ib->second));
    }
    const auto ka = a.kernels(), kb = b.kernels();
    ASSERT_EQ(ka.size(), kb.size());
    for (auto ia = ka.begin(), ib = kb.begin(); ia != ka.end();
         ++ia, ++ib) {
        EXPECT_EQ(ia->first.layer, ib->first.layer);
        EXPECT_EQ(ia->first.kernel, ib->first.kernel);
        EXPECT_EQ(ia->second.launches, ib->second.launches);
        EXPECT_EQ(bits(ia->second.timeUs), bits(ib->second.timeUs));
        EXPECT_EQ(bits(ia->second.dramBytes), bits(ib->second.dramBytes));
        EXPECT_EQ(ia->second.bottlenecks, ib->second.bottlenecks);
    }
}

TEST(TraceSharing, ObservedRunRecordsLikeItsExpansion)
{
    // The simulator an executor runs, with its observer and ledger
    // attached: metrics, GPU spans and ledger samples must not see
    // that launches share a stored kernel.
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const runtime::Lowering low(cfg);
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        if (spec.name != "MR" && spec.name != "PTB")
            continue;
        const runtime::NetworkShape shape = spec.timingShape();
        for (runtime::PlanKind kind : kPresets)
            for (quant::QuantMode qm : kModes) {
                SCOPED_TRACE(spec.name + "/" + runtime::toString(kind) +
                             "/" + quant::toString(qm));
                const runtime::ExecutionPlan plan =
                    presetFor(kind, shape, qm);
                const gpu::KernelTrace trace = low.lower(shape, plan);

                obs::Observer obs_shared, obs_flat;
                obs::TrafficLedger ledger_shared, ledger_flat;
                gpu::Simulator shared(cfg, plan.usesCrmHardware(),
                                      &obs_shared, &ledger_shared);
                gpu::Simulator flat(cfg, plan.usesCrmHardware(),
                                    &obs_flat, &ledger_flat);
                expectBitIdentical(shared.runTrace(trace),
                                   flat.runTrace(expanded(trace)));

                std::ostringstream metrics_shared, metrics_flat;
                obs_shared.metrics().writeJson(metrics_shared);
                obs_flat.metrics().writeJson(metrics_flat);
                EXPECT_EQ(metrics_shared.str(), metrics_flat.str());
                expectSameSpans(obs_shared.tracer().spans(),
                                obs_flat.tracer().spans());
                expectSameLedger(ledger_shared, ledger_flat);
            }
    }
}

} // namespace
