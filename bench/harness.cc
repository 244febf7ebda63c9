#include "harness.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <filesystem>

#include "hw/backend.hh"
#include "nn/serialize.hh"
#include "obs/json.hh"

namespace mflstm {
namespace bench {

void
BenchReport::config(const std::string &key, const std::string &value)
{
    config_[key] = value;
}

void
BenchReport::metric(const std::string &name, double value)
{
    metrics_[name] = value;
}

std::string
BenchReport::path() const
{
    return "BENCH_" + name_ + ".json";
}

bool
BenchReport::write() const
{
    const std::string file = path();
    std::ofstream os(file);
    if (!os) {
        std::fprintf(stderr, "warning: cannot write %s\n", file.c_str());
        return false;
    }
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value(kSchema);
    w.key("version").value(kVersion);
    w.key("name").value(name_);
    w.key("config").beginObject();
    for (const auto &[k, v] : config_)
        w.key(k).value(v);
    w.endObject();
    w.key("metrics").beginObject();
    for (const auto &[k, v] : metrics_)
        w.key(k).value(v);
    w.endObject();
    w.endObject();
    os << '\n';
    if (!os) {
        std::fprintf(stderr, "warning: short write to %s\n",
                     file.c_str());
        return false;
    }
    std::fprintf(stderr, "machine-readable results written to %s\n",
                 file.c_str());
    return true;
}

namespace {

const char *kCacheDir = "mflstm_model_cache";

void
dumpBenchMetrics()
{
    const obs::Observer &obs = benchObserver();
    if (obs.metrics().empty())
        return;
    // glibc keeps the invoking basename around for us; fall back to a
    // generic stem if the platform doesn't provide it.
#ifdef __GLIBC__
    const std::string stem = program_invocation_short_name;
#else
    const std::string stem = "bench";
#endif
    const std::string path = stem + "_metrics.json";
    std::ofstream os(path);
    if (!os)
        return;
    obs.metrics().writeJson(os);
    std::fprintf(stderr, "[harness] metrics written to %s\n",
                 path.c_str());
}

std::string
cachePath(const workloads::BenchmarkSpec &spec)
{
    return std::string(kCacheDir) + "/" + spec.name + "_h" +
           std::to_string(spec.modelHidden) + "_l" +
           std::to_string(spec.modelLength) + "_v3.bin";
}

} // anonymous namespace

obs::Observer &
benchObserver()
{
    static obs::Observer *instance = [] {
        std::atexit(dumpBenchMetrics);
        return new obs::Observer();
    }();
    return *instance;
}

AppContext
makeApp(const workloads::BenchmarkSpec &spec)
{
    AppContext app;
    app.spec = spec;
    app.data = workloads::makeTask(spec, kTrainSamples, kTestSamples);

    const std::string path = cachePath(spec);
    if (nn::isModelFile(path)) {
        // Corruption recovery: a damaged cache file is quarantined and
        // the model retrained — a bad artifact must never abort a
        // bench run, only cost the training time the cache was saving.
        try {
            app.model = std::make_shared<nn::LstmModel>(
                nn::loadModel(path, io::ArtifactLimits{},
                              &benchObserver()));
        } catch (const io::ArtifactError &e) {
            const std::string moved = io::quarantine(path);
            std::fprintf(stderr,
                         "[harness] cache %s rejected (%s): %s\n"
                         "[harness] quarantined to %s; retraining\n",
                         path.c_str(), io::toString(e.kind()), e.what(),
                         moved.empty() ? "(rename failed)"
                                       : moved.c_str());
        }
    }
    if (!app.model) {
        std::fprintf(stderr, "[harness] training %s accuracy model...\n",
                     spec.name.c_str());
        app.model = std::make_shared<nn::LstmModel>(
            workloads::trainAccuracyModel(spec, app.data, kTrainEpochs));
        std::error_code ec;
        std::filesystem::create_directories(kCacheDir, ec);
        if (!ec)
            nn::saveModel(*app.model, path);
    }
    app.baselineAccuracy = workloads::exactAccuracy(*app.model, app.data);
    return app;
}

std::vector<AppContext>
makeAllApps()
{
    std::vector<AppContext> apps;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII())
        apps.push_back(makeApp(spec));
    return apps;
}

std::unique_ptr<core::MemoryFriendlyLstm>
makeCalibrated(const AppContext &app, const std::string &backendId)
{
    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
        *app.model, core::MemoryFriendlyLstm::Config{
                        hw::registry().get(backendId).config,
                        app.spec.timingShape(), &benchObserver()});
    mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    return mf;
}

double
evalAccuracy(core::MemoryFriendlyLstm &mf, const AppContext &app)
{
    if (app.data.isLm)
        return core::approxLmNextTokenAccuracy(mf.runner(),
                                               app.data.lm.test);
    return core::approxClassificationAccuracy(mf.runner(),
                                              app.data.cls.test);
}

SchemeCurve
evaluateScheme(core::MemoryFriendlyLstm &mf, const AppContext &app,
               runtime::PlanKind kind,
               const std::vector<core::ThresholdSet> &ladder)
{
    SchemeCurve curve;
    curve.kind = kind;

    const bool uses_inter = runtime::presetUsesTissues(kind);
    const bool uses_intra = runtime::presetUsesSkip(kind);

    for (std::size_t i = 0; i < ladder.size(); ++i) {
        // The quant mode rides along unconditionally: it is orthogonal
        // to which alphas the scheme uses (DESIGN.md §12).
        mf.setThresholds({uses_inter ? ladder[i].alphaInter : 0.0,
                          uses_intra ? ladder[i].alphaIntra : 0.0,
                          ladder[i].quant});

        core::OperatingPoint pt;
        pt.index = i;
        pt.set = ladder[i];
        pt.accuracy = evalAccuracy(mf, app);

        const core::TimingOutcome outcome = mf.evaluateTiming(kind);
        pt.speedup = outcome.speedup;

        curve.points.push_back(pt);
        curve.outcomes.push_back(outcome);
    }
    return curve;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

void
rule(char c, int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

} // namespace bench
} // namespace mflstm
