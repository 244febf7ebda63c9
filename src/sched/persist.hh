/**
 * @file
 * Tuned-plan persistence on the crash-safe artifact layer (DESIGN.md
 * §11/§14). A search result is only meaningful for the exact model,
 * statistics, GPU and precision point it was tuned on, so the artifact
 * (io::kSchemaTunedPlan) carries a full fingerprint — model weights
 * CRC, statistics CRC, the tuning knobs — plus the complete GpuConfig
 * and timing shape, the chosen ScheduleDecisions, and the measured
 * (simulated) time/bytes of the chosen plan and its preset reference.
 *
 * Loading re-derives trust instead of assuming it: the fingerprint must
 * match the caller's expectation (ErrorKind::Stale otherwise, exactly
 * like the calibration artifact's weights-CRC rule), the decisions must
 * validate, and the plan is re-simulated on the stored GpuConfig — a
 * measured time/bytes mismatch rejects the file as Stale rather than
 * serving a plan whose claimed score the current simulator cannot
 * reproduce. Storing the GpuConfig makes that re-simulation possible
 * standalone, which is what lets `mflstm fsck` deep-verify tuned plans
 * with no model or calibration at hand.
 */

#ifndef MFLSTM_SCHED_PERSIST_HH
#define MFLSTM_SCHED_PERSIST_HH

#include <string>
#include <vector>

#include "gpu/config.hh"
#include "io/artifact.hh"
#include "sched/tuner.hh"

namespace mflstm {
namespace sched {

/** What makes a tuned plan reusable (all must match on load). */
struct TunedPlanFingerprint
{
    std::uint32_t weightsCrc = 0;  ///< core::modelWeightsCrc
    std::uint32_t statsCrc = 0;    ///< statsCrc() over TuneRequest::stats
    std::uint32_t quant = 0;       ///< quant::QuantMode underlying value
    std::uint64_t batch = 1;
    std::uint64_t mts = 1;
    std::uint64_t modelHidden = 0;
    std::string backendId;  ///< hw registry backend id

    bool operator==(const TunedPlanFingerprint &) const = default;
};

/** Candidate-table row persisted for the report on cache hits. */
struct CandidateSummary
{
    std::string label;
    double timeUs = 0.0;
    double dramBytes = 0.0;
};

/** Everything the tuned-plan artifact stores. */
struct TunedPlanArtifact
{
    TunedPlanFingerprint fingerprint;
    gpu::GpuConfig gpu;
    runtime::NetworkShape shape;
    runtime::ScheduleDecisions decisions;
    /// measured (simulated) score of the chosen plan
    double timeUs = 0.0;
    double dramBytes = 0.0;
    std::string chosenLabel;
    /// the dominance reference preset and its score
    std::string referenceLabel;
    double referenceTimeUs = 0.0;
    double referenceDramBytes = 0.0;
    std::vector<std::string> layerLabels;
    std::vector<CandidateSummary> candidates;
};

/** CRC32 over the packed statistics (fingerprint ingredient). */
std::uint32_t
statsCrc(const std::vector<core::LayerApproxStats> &stats);

/** Deterministic byte serialization of @p cfg (also the staleness key). */
std::vector<std::uint8_t> serializeGpuConfig(const gpu::GpuConfig &cfg);

/**
 * The NetworkShape codec every artifact that stores a timing shape
 * shares (the tuned plan and the engine warm state): a u64 layer
 * count, then (input, hidden, length) as u64 per layer.
 */
void writeShape(io::ByteWriter &w, const runtime::NetworkShape &shape);

/**
 * Read what writeShape wrote: 1..1024 layers (Malformed otherwise;
 * LimitExceeded above the reader's maxDim), every dimension non-zero
 * and within maxDim (LimitExceeded). The caller checks the end of its
 * chunk.
 */
runtime::NetworkShape readShape(io::ByteReader &r);

/**
 * The per-layer LayerSchedule codec every artifact that stores
 * decisions shares (the tuned plan and the engine warm state): a u64
 * layer count, then one LayerSchedule field list per layer.
 */
void writeDecisions(io::ByteWriter &w,
                    const runtime::ScheduleDecisions &decisions);

/**
 * Read what writeDecisions wrote, trusting nothing: the layer count is
 * bounded as in readShape, enum tags must be known, fractions finite,
 * tissue sizes within the reader's maxDim, and the result must pass
 * ScheduleDecisions::validate(). The caller checks the end of its
 * chunk. @throws io::ArtifactError (Malformed, NonFinite or
 * LimitExceeded).
 */
runtime::ScheduleDecisions readDecisions(io::ByteReader &r);

/** Assemble the artifact for @p result tuned under @p req. */
TunedPlanArtifact
makeTunedPlanArtifact(const TuneRequest &req, std::uint32_t weights_crc,
                      const gpu::GpuConfig &gpu,
                      const TuneResult &result);

/** Atomic write of @p artifact. @throws io::ArtifactError on I/O. */
void saveTunedPlan(const TunedPlanArtifact &artifact,
                   const std::string &path);

/**
 * Load and fully validate a tuned plan: structure, fingerprint against
 * (@p req, @p weights_crc, @p gpu), decision validity, and measured
 * re-simulation. @throws io::ArtifactError (Stale on any expectation
 * mismatch or score the simulator cannot reproduce).
 */
TunedPlanArtifact
loadTunedPlan(const std::string &path, const gpu::GpuConfig &gpu,
              const TuneRequest &req, std::uint32_t weights_crc,
              const io::ArtifactLimits &limits = {});

/**
 * Deep verification for `mflstm fsck`: parse every chunk, validate the
 * decisions, and re-simulate the plan on the *stored* GpuConfig/shape,
 * checking the measured score reproduces. Needs no model — staleness
 * against a live model cannot be checked here, structural and
 * self-consistency defects can. @throws io::ArtifactError.
 */
void verifyTunedPlanFile(const std::string &path,
                         const io::ArtifactLimits &limits = {});

/**
 * The cached tuning entry point (the `mflstm tune` / serve path):
 * return the cached result when @p path holds a valid, fresh tuned
 * plan for this request (result.fromCache = true, search skipped);
 * otherwise run tune(), save the artifact, and return the fresh
 * result. A corrupt or stale cache file goes through
 * io::loadOrRebuild (counted on @p obs, quarantined, re-tuned), never
 * trusted and never fatal. With @p force the cache is ignored (but
 * still rewritten).
 *
 * On a cache hit only the chosen candidate carries a plan; the other
 * table rows are label/score summaries.
 */
TuneResult tuneCached(const runtime::NetworkExecutor &exec,
                      const TuneRequest &req, std::uint32_t weights_crc,
                      const std::string &path,
                      const io::ArtifactLimits &limits = {},
                      obs::Observer *obs = nullptr, bool force = false);

} // namespace sched
} // namespace mflstm

#endif // MFLSTM_SCHED_PERSIST_HH
