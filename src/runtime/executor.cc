#include "runtime/executor.hh"

#include <stdexcept>
#include <string>

namespace mflstm {
namespace runtime {

double
speedup(const RunReport &base, const RunReport &opt)
{
    if (opt.result.timeUs <= 0.0)
        throw std::invalid_argument("speedup: zero optimized time");
    return base.result.timeUs / opt.result.timeUs;
}

double
energySavingPct(const RunReport &base, const RunReport &opt)
{
    const double base_j = base.result.energy.totalJ();
    if (base_j <= 0.0)
        throw std::invalid_argument("energySavingPct: zero base energy");
    return 100.0 * (1.0 - opt.result.energy.totalJ() / base_j);
}

RunReport
NetworkExecutor::run(const RunRequest &req) const
{
    if (req.batch == 0)
        throw std::invalid_argument("NetworkExecutor: batch must be >= 1");
    if (req.shape.layers.empty())
        throw std::invalid_argument("NetworkExecutor: empty shape");

    const char *kind = toString(req.plan.kind);
    gpu::Simulator sim(cfg_, req.plan.usesCrmHardware(), obs_, ledger_);
    RunReport report;
    report.kind = req.plan.kind;
    report.batch = req.batch;

    gpu::KernelTrace trace;
    {
        auto ph = obs::Observer::phase(
            obs_, std::string("lower:") + kind);
        trace = lowering_.lower(req.shape, req.plan, req.batch,
                                req.firstLayerIndex);
    }

    const double gpu_start =
        obs_ ? obs_->tracer().simCursorUs() : 0.0;
    {
        auto ph = obs::Observer::phase(
            obs_, std::string("simulate:") + kind);
        report.result = sim.runTrace(trace);
    }

    if (obs_) {
        obs_->metrics().counter("executor.runs").add(1.0);
        // Enclosing run span on its own GPU track, so the timeline shows
        // where each plan's kernels start and end.
        const int run_track = static_cast<int>(cfg_.numSms);
        obs_->tracer().setTrackName(obs::SpanTracer::kGpuPid, run_track,
                                    "runs");
        obs::TraceSpan span;
        span.name = req.batch > 1 ? std::string(kind) + " x" +
                                        std::to_string(req.batch)
                                  : std::string(kind);
        span.category = "run";
        span.pid = obs::SpanTracer::kGpuPid;
        span.tid = run_track;
        span.startUs = gpu_start;
        span.durUs = obs_->tracer().simCursorUs() - gpu_start;
        obs_->tracer().record(std::move(span));
    }
    return report;
}

RunReport
NetworkExecutor::run(const NetworkShape &shape,
                     const ExecutionPlan &plan) const
{
    return run(RunRequest::network(shape, plan));
}

RunReport
NetworkExecutor::runLayer(const LstmLayerShape &layer,
                          const ExecutionPlan &plan,
                          std::size_t layer_index) const
{
    return run(RunRequest::layer(layer, plan, layer_index));
}

} // namespace runtime
} // namespace mflstm
