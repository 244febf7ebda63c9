/**
 * @file
 * Network executor: lowers a network + plan onto the simulated GPU and
 * reports timing/energy, plus the comparison helpers the benches use
 * (speedup, energy saving). This is the reproduction's equivalent of the
 * paper's DeepBench-drives-the-Jetson-board measurement loop.
 *
 * All runs go through one entry point, `run(const RunRequest&)`: the
 * descriptor names the layers to lower, the plan, the batch dimension
 * (concurrent sequences sharing every weight fetch — the serving
 * layer's cross-sequence batching) and, for single-layer studies, the
 * plan/provenance index of the first layer. The positional
 * `run(shape, plan)` / `runLayer(...)` signatures delegate to it.
 */

#ifndef MFLSTM_RUNTIME_EXECUTOR_HH
#define MFLSTM_RUNTIME_EXECUTOR_HH

#include "gpu/simulator.hh"
#include "runtime/lowering.hh"
#include "runtime/plan.hh"

namespace mflstm {
namespace runtime {

/** One measured run. */
struct RunReport
{
    PlanKind kind = PlanKind::Baseline;
    /// sequences that shared this run's weight fetches
    std::size_t batch = 1;
    gpu::TraceResult result;

    /** Weight-matrix DRAM bytes amortised per sequence. */
    double weightDramBytesPerSequence() const
    {
        return batch ? result.weightDramBytes /
                           static_cast<double>(batch)
                     : result.weightDramBytes;
    }
};

/** Speedup of @p opt over @p base (wall time ratio). */
double speedup(const RunReport &base, const RunReport &opt);

/** Energy saving of @p opt vs @p base, percent of baseline energy. */
double energySavingPct(const RunReport &base, const RunReport &opt);

/** Everything one executor run needs, in one descriptor. */
struct RunRequest
{
    /// layers to lower (the whole network, or a single-layer slice)
    NetworkShape shape;
    ExecutionPlan plan;
    /// concurrent sequences packed into every kernel (>= 1)
    std::size_t batch = 1;
    /// plan / provenance index of shape.layers[0] (single-layer runs)
    std::size_t firstLayerIndex = 0;

    /** Whole-network run. */
    static RunRequest network(NetworkShape s, ExecutionPlan p,
                              std::size_t b = 1)
    {
        RunRequest r;
        r.shape = std::move(s);
        r.plan = std::move(p);
        r.batch = b;
        return r;
    }

    /** Single-layer run (the Fig. 15 study). */
    static RunRequest layer(const LstmLayerShape &l, ExecutionPlan p,
                            std::size_t layer_index, std::size_t b = 1)
    {
        RunRequest r;
        r.shape.layers = {l};
        r.plan = std::move(p);
        r.batch = b;
        r.firstLayerIndex = layer_index;
        return r;
    }
};

/** Runs plans for network shapes on one GPU configuration. */
class NetworkExecutor
{
  public:
    /**
     * @param obs optional observability sink shared by every run this
     *            executor performs (host phases + GPU timeline +
     *            metrics); nullptr disables all recording. With a
     *            thread-safe sink, concurrent run() calls from several
     *            threads are safe: each run simulates on its own
     *            Simulator instance.
     */
    explicit NetworkExecutor(const gpu::GpuConfig &cfg,
                             obs::Observer *obs = nullptr)
        : cfg_(cfg), lowering_(cfg_), obs_(obs)
    {}

    const gpu::GpuConfig &config() const { return cfg_; }
    const Lowering &lowering() const { return lowering_; }
    obs::Observer *observer() const { return obs_; }

    /**
     * Attach a traffic-attribution ledger: every subsequent run() feeds
     * its simulated DRAM bytes into @p ledger (DESIGN.md §13). The
     * ledger must outlive the executor; nullptr detaches. Unlike the
     * observer, the ledger is mutable state shared across runs — attach
     * a per-thread ledger before sharing the executor across threads.
     */
    void setLedger(obs::TrafficLedger *ledger) { ledger_ = ledger; }
    obs::TrafficLedger *ledger() const { return ledger_; }

    /** Lower + simulate one descriptor (the common entry point). */
    RunReport run(const RunRequest &req) const;

    /** Lower + simulate the whole network (delegates to run(req)). */
    RunReport run(const NetworkShape &shape,
                  const ExecutionPlan &plan) const;

    /** Lower + simulate a single layer (delegates to run(req)). */
    RunReport runLayer(const LstmLayerShape &layer,
                       const ExecutionPlan &plan,
                       std::size_t layer_index) const;

  private:
    gpu::GpuConfig cfg_;
    Lowering lowering_;
    obs::Observer *obs_ = nullptr;
    obs::TrafficLedger *ledger_ = nullptr;
};

} // namespace runtime
} // namespace mflstm

#endif // MFLSTM_RUNTIME_EXECUTOR_HH
