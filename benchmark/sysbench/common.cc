#include "sysbench/common.hh"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "hw/backend.hh"
#include "nn/serialize.hh"
#include "obs/observer.hh"
#include "sysbench/stats.hh"

namespace mflstm {
namespace sysbench {

bool
Options::moreSetUps(const std::vector<double> &done_s) const
{
    if (smoke || trace)
        return done_s.empty();
    double total = 0.0;
    for (double s : done_s)
        total += s;
    return done_s.size() < 3 || (done_s.size() < 15 && total < 1.5);
}

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::operations(std::uint64_t n, std::uint64_t failed)
{
    attempted_ += n;
    failed_ += failed;
}

bool
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string
modelPath(const std::string &cache_dir, const workloads::BenchmarkSpec &spec)
{
    return cache_dir + "/" + spec.name + "_h" +
           std::to_string(spec.modelHidden) + "_l" +
           std::to_string(spec.modelLength) + ".bin";
}

} // anonymous namespace

void
prepareModels(const std::string &cache_dir)
{
    std::filesystem::create_directories(cache_dir);
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        const std::string path = modelPath(cache_dir, spec);
        if (nn::isModelFile(path)) {
            try {
                nn::verifyModelFile(path);
                continue;
            } catch (const io::ArtifactError &e) {
                std::fprintf(stderr, "prepare: %s rejected (%s); "
                             "retraining\n", path.c_str(), e.what());
                io::quarantine(path);
            }
        }
        std::fprintf(stderr, "prepare: training %s...\n", spec.name.c_str());
        const workloads::TaskData data =
            workloads::makeTask(spec, kTrainSamples, kTestSamples);
        nn::saveModel(workloads::trainAccuracyModel(spec, data, kTrainEpochs),
                      path);
    }
}

App
loadApp(const std::string &cache_dir, const workloads::BenchmarkSpec &spec,
        Tracer &tracer, LayerTimes &times)
{
    App app;
    app.spec = spec;
    const std::string path = modelPath(cache_dir, spec);
    if (!nn::isModelFile(path))
        throw std::runtime_error("no cached model at " + path +
                                 " (run with --prepare first)");
    const Clock::time_point t0 = Clock::now();
    {
        auto s = tracer.scope("io.load_model", Layer::Io);
        app.model = std::make_unique<nn::LstmModel>(nn::loadModel(path));
    }
    times.modelLoadMs.push_back(msSince(t0));
    app.data = workloads::makeTask(spec, kTrainSamples, kTestSamples);
    return app;
}

std::unique_ptr<core::MemoryFriendlyLstm>
makeCalibrated(const App &app, const std::string &backend_id, Tracer &tracer,
               LayerTimes &times)
{
    const Clock::time_point t0 = Clock::now();
    auto s = tracer.scope("core.calibrate", Layer::Core);
    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
        *app.model,
        core::MemoryFriendlyLstm::Config{hw::registry().get(backend_id).config,
                                         app.spec.timingShape()});
    mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    times.calibrateMs.push_back(msSince(t0));
    return mf;
}

workloads::TaskData
seededTestSplit(const workloads::BenchmarkSpec &spec, std::uint64_t seed)
{
    workloads::BenchmarkSpec s = spec;
    s.seed = seed;
    return workloads::makeTask(s, 0, kTestSamples);
}

double
evalAccuracy(core::ApproxRunner &runner, const workloads::TaskData &data)
{
    return data.isLm
               ? core::approxLmNextTokenAccuracy(runner, data.lm.test)
               : core::approxClassificationAccuracy(runner, data.cls.test);
}

bool
replayRun(const gpu::GpuConfig &cfg, const runtime::NetworkShape &shape,
          const runtime::ExecutionPlan &plan, std::size_t batch,
          bool observed, Tracer &tracer, LayerTimes &out)
{
    const runtime::RunRequest req =
        runtime::RunRequest::network(shape, plan, batch);
    // A fresh observer per call: the engine's observer keeps every span
    // it records, and the replay must not grow without bound.
    obs::Observer run_obs, sim_obs;
    const runtime::NetworkExecutor exec(cfg, observed ? &run_obs : nullptr);

    runtime::RunReport whole;
    Clock::time_point t0 = Clock::now();
    {
        auto s = tracer.scope("runtime.run", Layer::Runtime);
        whole = exec.run(req);
    }
    out.runMs.push_back(msSince(t0));

    gpu::KernelTrace trace;
    t0 = Clock::now();
    {
        auto s = tracer.scope("runtime.lower", Layer::Runtime);
        trace = exec.lowering().lower(req.shape, plan, batch);
        s.setItems(static_cast<double>(trace.size()));
    }
    out.lowerMs.push_back(msSince(t0));
    out.kernels += static_cast<double>(trace.size());

    gpu::TraceResult plain, recorded;
    t0 = Clock::now();
    {
        auto s = tracer.scope("gpu.simulate", Layer::Gpu);
        gpu::Simulator sim(cfg, plan.usesCrmHardware());
        plain = sim.runTrace(trace);
    }
    out.simulateMs.push_back(msSince(t0));
    t0 = Clock::now();
    {
        auto s = tracer.scope("gpu.simulate_observed", Layer::Gpu);
        gpu::Simulator sim(cfg, plan.usesCrmHardware(), &sim_obs);
        recorded = sim.runTrace(trace);
    }
    out.simulateObservedMs.push_back(msSince(t0));
    out.simUs += plain.timeUs;
    out.simSgemvUs += plain.classShare(gpu::KernelClass::Sgemv) * plain.timeUs;
    out.simDramBytes += plain.dramBytes;

    return plain.timeUs == whole.result.timeUs &&
           recorded.timeUs == whole.result.timeUs &&
           plain.dramBytes == whole.result.dramBytes;
}

void
reportLayerMetrics(Report &rep, const LayerTimes &t, const Tracer &tracer)
{
    rep.metric("io.model_load_ms.p50", median(t.modelLoadMs), "ms");
    rep.metric("core.calibrate_ms.p50", median(t.calibrateMs), "ms");
    rep.metric("core.forward_us_per_seq",
               t.forwardSeqs > 0 ? t.forwardUs / t.forwardSeqs : 0.0, "us");
    rep.metric("runtime.run_ms.p50", median(t.runMs), "ms");
    rep.metric("runtime.lower_ms.p50", median(t.lowerMs), "ms");
    rep.metric("gpu.simulate_ms.p50", median(t.simulateMs), "ms");
    rep.metric("gpu.simulate_observed_ms.p50", median(t.simulateObservedMs),
               "ms");
    double sim_total = 0.0;
    for (double ms : t.simulateMs)
        sim_total += ms;
    rep.metric("gpu.host_us_per_kernel",
               t.kernels > 0 ? 1e3 * sim_total / t.kernels : 0.0, "us");
    const double runs = static_cast<double>(t.runMs.size());
    rep.metric("runtime.runs", runs, "count");
    rep.metric("runtime.kernels_per_run.mean",
               runs > 0 ? t.kernels / runs : 0.0, "count");
    rep.metric("trace.spans", static_cast<double>(tracer.spans().size()),
               "count");
    rep.metric("gpu.sim.sgemv_share", t.simUs > 0 ? t.simSgemvUs / t.simUs : 0.0,
               "frac");
    rep.metric("gpu.sim.dram_mb_per_run",
               runs > 0 ? t.simDramBytes / 1e6 / runs : 0.0, "MB");

    const auto self = tracer.layerSelfUs();
    double total = 0.0;
    for (double us : self)
        total += us;
    for (std::size_t l = 0; l < kLayerCount; ++l)
        rep.metric(std::string(toString(static_cast<Layer>(l))) + ".self_pct",
                   total > 0 ? 100.0 * self[l] / total : 0.0, "%");
}

} // namespace sysbench
} // namespace mflstm
