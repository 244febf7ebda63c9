/**
 * @file
 * Shared pieces of the system benchmark: command-line options, the
 * result report every workload fills, the benchmark's own model cache
 * and the set-up helpers that build a calibrated facade from it.
 */

#ifndef SYSBENCH_COMMON_HH
#define SYSBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hh"
#include "sysbench/spans.hh"
#include "workloads/benchmarks.hh"
#include "workloads/datagen.hh"

namespace mflstm {
namespace sysbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /// measurement budget of one run; set-up is not counted
    double seconds = 10.0;
    bool trace = false;
    /// --smoke: 3 s budget, one set-up, one serve repetition and a 1 s
    /// warm-up (the ctest smoke runs)
    bool smoke = false;
    /// test-only: corrupt one compared logit so the serve check fails
    bool flipLogit = false;
    std::string cacheDir = ".bench_build/models";
    std::string outDir = ".bench_build/out";

    /**
     * Whether to run another set-up, given the seconds those done so far
     * took (setup_s is their median): at least three, and more, up to
     * fifteen, while together they took under 1.5 s, so cheap set-ups
     * get a steadier median. One in a smoke or traced run.
     */
    bool moreSetUps(const std::vector<double> &done_s) const;
};

/** Metrics and correctness outcome of one run. */
class Report
{
  public:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Count @p n operations, @p failed of which did not succeed. */
    void operations(std::uint64_t n, std::uint64_t failed = 0);

    /** Count one correctness check; a failed one is printed with @p what. */
    bool check(bool ok, const std::string &what);

    const std::vector<Metric> &metrics() const { return metrics_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Peak resident set size of this process, MB (getrusage). */
double peakRssMb();

// Dataset sizes and training length of the bench harness, so the cached
// models are the ones the repository's figure benches train.
inline constexpr std::size_t kTrainSamples = 400;
inline constexpr std::size_t kTestSamples = 120;
inline constexpr std::size_t kTrainEpochs = 20;
inline constexpr std::size_t kCalibrationSeqs = 40;

/** Train every Table II model missing from @p cache_dir (idempotent). */
void prepareModels(const std::string &cache_dir);

/** Timed library calls the per-layer metrics are computed from. */
struct LayerTimes
{
    std::vector<double> modelLoadMs;
    std::vector<double> calibrateMs;
    double forwardUs = 0.0;
    double forwardSeqs = 0.0;
    std::vector<double> runMs;
    std::vector<double> lowerMs;
    std::vector<double> simulateMs;
    std::vector<double> simulateObservedMs;
    double kernels = 0.0;
    /// simulated totals of the replayed runs
    double simUs = 0.0;
    double simSgemvUs = 0.0;
    double simDramBytes = 0.0;
};

/** One Table II application: canonical data plus its trained model. */
struct App
{
    workloads::BenchmarkSpec spec;
    workloads::TaskData data;
    /// heap-held: facades keep a reference to the model
    std::unique_ptr<nn::LstmModel> model;
};

/**
 * Load @p spec's model from the cache (spanned as io) and generate its
 * canonical task data. @throws std::runtime_error when the model is
 * missing (run --prepare first).
 */
App loadApp(const std::string &cache_dir,
            const workloads::BenchmarkSpec &spec, Tracer &tracer,
            LayerTimes &times);

/**
 * A calibrated facade on the named hw backend: construction (which
 * simulates the baseline) plus the offline calibration, spanned as core.
 */
std::unique_ptr<core::MemoryFriendlyLstm>
makeCalibrated(const App &app, const std::string &backend_id,
               Tracer &tracer, LayerTimes &times);

/**
 * Test split of @p spec's task drawn from @p seed instead of the
 * canonical one: same task rules, unseen sequences.
 */
workloads::TaskData seededTestSplit(const workloads::BenchmarkSpec &spec,
                                    std::uint64_t seed);

/**
 * Task-appropriate approximate accuracy on @p data's test split
 * (kTestSamples sequences).
 */
double evalAccuracy(core::ApproxRunner &runner,
                    const workloads::TaskData &data);

/**
 * Replay one executor run of @p plan at @p batch on @p cfg through the
 * public layers: NetworkExecutor::run (with an obs::Observer attached
 * when @p observed, as the serving engine's executor has), then
 * Lowering::lower and Simulator::runTrace, with and without an
 * observer. Every call is spanned and timed into @p out. Returns false
 * when the pieces disagree with the whole run's simulated result.
 */
bool replayRun(const gpu::GpuConfig &cfg, const runtime::NetworkShape &shape,
               const runtime::ExecutionPlan &plan, std::size_t batch,
               bool observed, Tracer &tracer, LayerTimes &out);

/**
 * Fill the per-layer metrics every workload reports from @p times and
 * the tracer's layer self times.
 */
void reportLayerMetrics(Report &rep, const LayerTimes &times,
                        const Tracer &tracer);

} // namespace sysbench
} // namespace mflstm

#endif // SYSBENCH_COMMON_HH
