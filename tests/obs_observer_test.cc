/**
 * @file
 * Integration tests for the injected observer: running the executor
 * with a sink populates the kernel timeline and the metrics registry
 * (DRS/CRM/cache/stall instruments), and running without one is
 * bit-identical to the uninstrumented seed behaviour.
 */

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/observer.hh"
#include "runtime/executor.hh"

namespace {

using namespace mflstm;
using namespace mflstm::runtime;
using mflstm::obs::JsonValue;
using mflstm::obs::Observer;
using mflstm::obs::SpanTracer;

ExecutionPlan
drsPlan()
{
    return ExecutionPlan::preset(PlanKind::IntraCellHw, 1,
                                 mflstm::quant::QuantMode::Fp32, {}, {0.5});
}

const NetworkShape kShape = NetworkShape::stacked(256, 256, 1, 8);

TEST(Observer, NullObserverLeavesResultsIdentical)
{
    NetworkExecutor plain(gpu::GpuConfig::tegraX1());
    Observer obs;
    NetworkExecutor instrumented(gpu::GpuConfig::tegraX1(), &obs);

    const ExecutionPlan plan = drsPlan();
    const RunReport a = plain.run(kShape, plan);
    const RunReport b = instrumented.run(kShape, plan);

    EXPECT_EQ(a.result.timeUs, b.result.timeUs);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.dramBytes, b.result.dramBytes);
    EXPECT_EQ(a.result.energy.totalJ(), b.result.energy.totalJ());
    EXPECT_EQ(a.result.kernelCount, b.result.kernelCount);
}

TEST(Observer, RunRecordsAcceptanceMetrics)
{
    Observer obs;
    NetworkExecutor ex(gpu::GpuConfig::tegraX1(), &obs);
    const RunReport r = ex.run(kShape, drsPlan());
    ASSERT_GT(r.result.kernelCount, 0u);

    const auto &m = obs.metrics();
    // DRS skip counts.
    ASSERT_NE(m.findCounter("drs.rows_skipped"), nullptr);
    EXPECT_GT(m.findCounter("drs.rows_skipped")->value(), 0.0);
    ASSERT_NE(m.findCounter("drs.kernels_with_skip"), nullptr);
    // CRM compaction ratio (HW plan routes through the CRM).
    ASSERT_NE(m.findGauge("crm.compaction_ratio"), nullptr);
    const double ratio = m.findGauge("crm.compaction_ratio")->value();
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
    ASSERT_NE(m.findCounter("crm.passes"), nullptr);
    EXPECT_GT(m.findCounter("crm.passes")->value(), 0.0);
    // Cache hit rate.
    ASSERT_NE(m.findGauge("cache.l2_hit_rate"), nullptr);
    // Per-class stall-cycle histograms exist for the classes that ran.
    ASSERT_NE(m.findHistogram("sim.stall_cycles_hist.Sgemv"), nullptr);
    EXPECT_GT(m.findHistogram("sim.stall_cycles_hist.Sgemv")->count(),
              0u);
    // Kernel counters agree with the report.
    ASSERT_NE(m.findCounter("sim.kernels"), nullptr);
    EXPECT_DOUBLE_EQ(m.findCounter("sim.kernels")->value(),
                     static_cast<double>(r.result.kernelCount));
    ASSERT_NE(m.findCounter("gmu.kernels_through_crm"), nullptr);
    EXPECT_DOUBLE_EQ(m.findCounter("gmu.kernels_through_crm")->value(),
                     static_cast<double>(r.result.kernelsThroughCrm));
}

TEST(Observer, TraceHasPerSmTracksAndMonotonicTimestamps)
{
    Observer obs;
    NetworkExecutor ex(gpu::GpuConfig::tegraX1(), &obs);
    ex.run(kShape, drsPlan());

    std::ostringstream os;
    obs.tracer().writeChromeTrace(os);
    const auto doc = obs::parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    bool saw_sm0 = false;
    bool saw_runs = false;
    std::map<std::pair<double, double>, double> lastEnd;
    std::size_t gpu_spans = 0;
    for (const JsonValue &ev : events->items) {
        const std::string &ph = ev.find("ph")->str;
        if (ph == "M") {
            const JsonValue *name = ev.find("args")->find("name");
            if (name->str == "SM 0")
                saw_sm0 = true;
            if (name->str == "runs")
                saw_runs = true;
            continue;
        }
        if (ph != "X" ||
            ev.find("pid")->number != SpanTracer::kGpuPid)
            continue;
        ++gpu_spans;
        const auto track = std::make_pair(ev.find("pid")->number,
                                          ev.find("tid")->number);
        const double ts = ev.find("ts")->number;
        const auto it = lastEnd.find(track);
        if (it != lastEnd.end()) {
            EXPECT_GE(ts, it->second) << "overlap on tid "
                                      << track.second;
        }
        lastEnd[track] =
            std::max(it == lastEnd.end() ? ts : it->second,
                     ts + ev.find("dur")->number);
    }
    EXPECT_TRUE(saw_sm0);
    EXPECT_TRUE(saw_runs);
    EXPECT_GT(gpu_spans, 0u);
}

TEST(Observer, KernelSpansCarryProvenanceArgs)
{
    Observer obs;
    NetworkExecutor ex(gpu::GpuConfig::tegraX1(), &obs);
    ex.run(kShape, drsPlan());

    bool saw_timestep = false;
    for (const obs::TraceSpan &s : obs.tracer().spans()) {
        // Kernel spans carry the kernel class as their category.
        if (s.pid != SpanTracer::kGpuPid || s.category == "run")
            continue;
        for (const auto &[k, v] : s.numArgs) {
            if (k == "timestep" && v >= 0.0)
                saw_timestep = true;
        }
    }
    EXPECT_TRUE(saw_timestep);
}

TEST(Observer, SuccessiveRunsDoNotOverlapOnTheTimeline)
{
    Observer obs;
    NetworkExecutor ex(gpu::GpuConfig::tegraX1(), &obs);
    ex.run(kShape, ExecutionPlan{});
    const double cursor_after_first = obs.tracer().simCursorUs();
    ex.run(kShape, drsPlan());
    EXPECT_GT(obs.tracer().simCursorUs(), cursor_after_first);

    // The executor records one enclosing run span per run.
    std::size_t run_spans = 0;
    double prev_end = -1.0;
    for (const obs::TraceSpan &s : obs.tracer().spans()) {
        if (s.category != "run")
            continue;
        ++run_spans;
        EXPECT_GE(s.startUs, prev_end);
        prev_end = s.startUs + s.durUs;
    }
    EXPECT_EQ(run_spans, 2u);
}

TEST(Observer, ExecutorPhasesAppearOnTheHostTrack)
{
    Observer obs;
    NetworkExecutor ex(gpu::GpuConfig::tegraX1(), &obs);
    ex.run(kShape, ExecutionPlan{});

    bool saw_lower = false;
    bool saw_simulate = false;
    for (const obs::TraceSpan &s : obs.tracer().spans()) {
        if (s.pid != SpanTracer::kHostPid)
            continue;
        if (s.name.rfind("lower:", 0) == 0)
            saw_lower = true;
        if (s.name.rfind("simulate:", 0) == 0)
            saw_simulate = true;
    }
    EXPECT_TRUE(saw_lower);
    EXPECT_TRUE(saw_simulate);
}

} // namespace
