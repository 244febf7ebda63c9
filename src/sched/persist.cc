#include "sched/persist.hh"

#include <algorithm>
#include <cmath>

namespace mflstm {
namespace sched {

namespace {

/**
 * The one schema version this build reads and writes. Files of any
 * other version are rejected BadVersion and re-tuned (DESIGN.md §11).
 */
constexpr std::uint32_t kVersion = 4;

const std::uint32_t kChunkFingerprint = io::fourcc('T', 'F', 'P', 'R');
const std::uint32_t kChunkGpu = io::fourcc('T', 'G', 'P', 'U');
const std::uint32_t kChunkShape = io::fourcc('T', 'S', 'H', 'P');
const std::uint32_t kChunkDecisions = io::fourcc('T', 'D', 'E', 'C');
const std::uint32_t kChunkMeasured = io::fourcc('T', 'M', 'E', 'A');
const std::uint32_t kChunkCandidates = io::fourcc('T', 'C', 'A', 'N');

[[noreturn]] void
fail(io::ErrorKind kind, const std::string &msg)
{
    throw io::ArtifactError(kind, "tuned plan: " + msg);
}

/** |a - b| within a relative 1e-6 of |b| (guarded near zero). */
bool
close(double a, double b)
{
    return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
}

template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, TunedPlanFingerprint> fp)
{
    c(fp.weightsCrc, fp.statsCrc, fp.quant, fp.batch, fp.mts,
      fp.modelHidden, fp.backendId);
}

/** The GpuConfig chunk, also the staleness key (serializeGpuConfig). */
template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, gpu::GpuConfig> g)
{
    c(g.name, g.numSms, g.coresPerSm, g.coreClockGhz, g.warpSize,
      g.maxThreadsPerSm, g.maxCtasPerSm, g.dramBandwidthGBs,
      g.dramLatencyNs, g.l2Bytes, g.l2Assoc, g.lineBytes,
      g.l2BytesPerCycle, g.sharedMemPerSmBytes,
      g.sharedBytesPerCyclePerSm, g.kernelLaunchUs,
      g.streamedLaunchFraction, g.barrierCostCycles, g.reconfigPenalty,
      g.socStaticW, g.gpuIdleW, g.gpuIssueActiveW, g.dramPjPerByte,
      g.l2PjPerByte, g.sharedPjPerByte, g.fmaPjPerFlop,
      g.dequantPjPerWeight, g.dequantOpsPerWeight, g.crmThreadsPerCycle,
      g.crmPipelineCycles, g.crmPjPerThread, g.crmStaticW,
      g.regFileBytesPerSm, g.sharedResidencyFraction,
      g.regfileResidencyFraction, g.residencyOccupancyPenalty,
      g.int8DotUnits, g.explicitWeightMemory);
}

/** The measured chunk: the chosen plan's and the reference's scores. */
template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, TunedPlanArtifact> a)
{
    c(a.timeUs, a.dramBytes, a.chosenLabel, a.referenceLabel,
      a.referenceTimeUs, a.referenceDramBytes, a.layerLabels);
}

template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, runtime::LayerSchedule> ls)
{
    c(ls.tissueSizes, io::upTo<runtime::SkipPath::HwCrm>(ls.skipPath),
      ls.skipFraction,
      io::upTo<runtime::FlagFusion::FusedEpilogue>(ls.flagFusion),
      io::upTo<quant::QuantMode::Int4>(ls.quant), ls.prunedCsr,
      ls.pruneFraction,
      io::upTo<runtime::WeightResidency::Regfile>(ls.residency));
}

/** A u64 layer count: 1..1024, and within @p r's maxDim. */
std::uint64_t
readLayerCount(io::ByteReader &r)
{
    const std::uint64_t count = r.u64();
    if (!count || count > 1024)
        r.fail(io::ErrorKind::Malformed, "implausible layer count");
    if (count > r.limits().maxDim)
        r.fail(io::ErrorKind::LimitExceeded, "absurd layer count");
    return count;
}

/** LimitExceeded unless @p dim <= maxDim (and non-zero unless @p zero). */
void
checkDim(const io::ByteReader &r, std::uint64_t dim, bool zero,
         const char *what)
{
    if ((dim == 0 && !zero) || dim > r.limits().maxDim)
        r.fail(io::ErrorKind::LimitExceeded,
               std::string("absurd ") + what);
}

/** What a tuned plan for @p req on @p weights_crc must carry. */
TunedPlanFingerprint
fingerprintOf(const TuneRequest &req, std::uint32_t weights_crc)
{
    TunedPlanFingerprint fp;
    fp.weightsCrc = weights_crc;
    fp.statsCrc = statsCrc(req.stats);
    fp.quant = static_cast<std::uint32_t>(req.quant);
    fp.batch = req.batch;
    fp.mts = req.mts;
    fp.modelHidden = req.modelHidden;
    fp.backendId = req.backendId;
    return fp;
}

/** Read one chunk whose payload is exactly @p value's field list. */
template <typename T>
void
readChunk(const io::ArtifactReader &reader, std::uint32_t tag, T &value)
{
    io::ByteReader r = reader.chunk(tag);
    fields(r, value);
    r.expectEnd();
}

/** Parse + structurally validate every chunk (no staleness checks). */
TunedPlanArtifact
parse(const std::string &path, const io::ArtifactLimits &limits)
{
    const io::ArtifactReader reader(path, io::kSchemaTunedPlan, kVersion,
                                    limits);
    TunedPlanArtifact art;
    readChunk(reader, kChunkFingerprint, art.fingerprint);
    readChunk(reader, kChunkGpu, art.gpu);
    {
        io::ByteReader r = reader.chunk(kChunkShape);
        art.shape = readShape(r);
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkDecisions);
        art.decisions = readDecisions(r);
        r.expectEnd();
    }
    if (art.decisions.layers.size() != art.shape.layers.size())
        fail(io::ErrorKind::Malformed,
             "decision/shape layer count mismatch");
    readChunk(reader, kChunkMeasured, art);
    if (art.layerLabels.size() != art.shape.layers.size())
        fail(io::ErrorKind::Malformed, "layer label count mismatch");
    {
        io::ByteReader r = reader.chunk(kChunkCandidates);
        const std::uint64_t count = r.u64();
        if (count > 4096)
            fail(io::ErrorKind::Malformed,
                 "implausible candidate count");
        art.candidates.resize(static_cast<std::size_t>(count));
        for (CandidateSummary &c : art.candidates)
            r(c.label, c.timeUs, c.dramBytes);
        r.expectEnd();
    }
    if (art.timeUs < 0.0 || art.dramBytes < 0.0)
        fail(io::ErrorKind::Malformed, "negative measured score");
    return art;
}

/**
 * Re-simulate the stored decisions on the stored GpuConfig and require
 * the stored score to reproduce — the artifact is not just structurally
 * sound, its claim is re-derived before anything trusts it.
 */
void
checkMeasured(const TunedPlanArtifact &artifact)
{
    runtime::ExecutionPlan plan;
    try {
        plan = runtime::ExecutionPlan::fromDecisions(artifact.decisions);
    } catch (const std::invalid_argument &e) {
        fail(io::ErrorKind::Malformed, e.what());
    }
    const runtime::NetworkExecutor exec(artifact.gpu);
    const runtime::RunReport report =
        exec.run(runtime::RunRequest::network(
            artifact.shape, std::move(plan),
            static_cast<std::size_t>(artifact.fingerprint.batch)));
    if (!close(report.result.timeUs, artifact.timeUs) ||
        !close(report.result.dramBytes, artifact.dramBytes))
        fail(io::ErrorKind::Stale,
             "measured score does not re-simulate (stored " +
                 std::to_string(artifact.timeUs) + " us / " +
                 std::to_string(artifact.dramBytes) + " B, got " +
                 std::to_string(report.result.timeUs) + " us / " +
                 std::to_string(report.result.dramBytes) + " B)");
}

TuneResult
resultFromArtifact(TunedPlanArtifact art)
{
    TuneResult result;
    result.chosen.label = art.chosenLabel;
    result.chosen.plan =
        runtime::ExecutionPlan::fromDecisions(std::move(art.decisions));
    result.chosen.timeUs = art.timeUs;
    result.chosen.dramBytes = art.dramBytes;
    result.chosenLayerLabels = std::move(art.layerLabels);
    for (CandidateSummary &c : art.candidates) {
        Candidate cand;
        cand.label = std::move(c.label);
        cand.timeUs = c.timeUs;
        cand.dramBytes = c.dramBytes;
        result.candidates.push_back(std::move(cand));
    }
    result.referenceLabel = std::move(art.referenceLabel);
    result.referenceTimeUs = art.referenceTimeUs;
    result.referenceDramBytes = art.referenceDramBytes;
    result.dominatesReference =
        result.chosen.timeUs <= result.referenceTimeUs &&
        result.chosen.dramBytes <= result.referenceDramBytes;
    result.fromCache = true;
    return result;
}

} // anonymous namespace

std::uint32_t
statsCrc(const std::vector<core::LayerApproxStats> &stats)
{
    io::ByteWriter w;
    for (const core::LayerApproxStats &st : stats)
        w(st.sequences, st.links, st.breaks, st.cells, st.skippedRows);
    return io::crc32(w.bytes().data(), w.bytes().size());
}

void
writeShape(io::ByteWriter &w, const runtime::NetworkShape &shape)
{
    w.u64(shape.layers.size());
    for (const runtime::LstmLayerShape &l : shape.layers)
        w(l.inputSize, l.hiddenSize, l.length);
}

runtime::NetworkShape
readShape(io::ByteReader &r)
{
    runtime::NetworkShape shape;
    shape.layers.resize(static_cast<std::size_t>(readLayerCount(r)));
    for (runtime::LstmLayerShape &l : shape.layers) {
        r(l.inputSize, l.hiddenSize, l.length);
        // fsck lowers and simulates this shape: bound it first.
        for (std::size_t dim : {l.inputSize, l.hiddenSize, l.length})
            checkDim(r, dim, false, "layer shape");
    }
    return shape;
}

void
writeDecisions(io::ByteWriter &w,
               const runtime::ScheduleDecisions &decisions)
{
    w.u64(decisions.layers.size());
    for (const runtime::LayerSchedule &ls : decisions.layers)
        fields(w, ls);
}

runtime::ScheduleDecisions
readDecisions(io::ByteReader &r)
{
    runtime::ScheduleDecisions decisions;
    decisions.layers.resize(static_cast<std::size_t>(readLayerCount(r)));
    for (runtime::LayerSchedule &ls : decisions.layers) {
        fields(r, ls);
        for (std::size_t t : ls.tissueSizes)
            checkDim(r, t, true, "tissue size");
    }
    try {
        decisions.validate();
    } catch (const std::invalid_argument &e) {
        r.fail(io::ErrorKind::Malformed, e.what());
    }
    return decisions;
}

std::vector<std::uint8_t>
serializeGpuConfig(const gpu::GpuConfig &cfg)
{
    io::ByteWriter w;
    fields(w, cfg);
    return w.bytes();
}

TunedPlanArtifact
makeTunedPlanArtifact(const TuneRequest &req, std::uint32_t weights_crc,
                      const gpu::GpuConfig &gpu, const TuneResult &result)
{
    TunedPlanArtifact art;
    art.fingerprint = fingerprintOf(req, weights_crc);
    art.gpu = gpu;
    art.shape = req.shape;
    art.decisions = result.chosen.plan.decisions;
    art.timeUs = result.chosen.timeUs;
    art.dramBytes = result.chosen.dramBytes;
    art.chosenLabel = result.chosen.label;
    art.referenceLabel = result.referenceLabel;
    art.referenceTimeUs = result.referenceTimeUs;
    art.referenceDramBytes = result.referenceDramBytes;
    art.layerLabels = result.chosenLayerLabels;
    for (const Candidate &c : result.candidates)
        art.candidates.push_back({c.label, c.timeUs, c.dramBytes});
    return art;
}

void
saveTunedPlan(const TunedPlanArtifact &artifact, const std::string &path)
{
    io::ArtifactWriter writer(io::kSchemaTunedPlan, kVersion);
    fields(writer.chunk(kChunkFingerprint), artifact.fingerprint);
    fields(writer.chunk(kChunkGpu), artifact.gpu);
    writeShape(writer.chunk(kChunkShape), artifact.shape);
    writeDecisions(writer.chunk(kChunkDecisions), artifact.decisions);
    fields(writer.chunk(kChunkMeasured), artifact);
    io::ByteWriter &w = writer.chunk(kChunkCandidates);
    w.u64(artifact.candidates.size());
    for (const CandidateSummary &c : artifact.candidates)
        w(c.label, c.timeUs, c.dramBytes);
    writer.commit(path);
}

TunedPlanArtifact
loadTunedPlan(const std::string &path, const gpu::GpuConfig &gpu,
              const TuneRequest &req, std::uint32_t weights_crc,
              const io::ArtifactLimits &limits)
{
    TunedPlanArtifact art = parse(path, limits);
    if (!(art.fingerprint == fingerprintOf(req, weights_crc)))
        fail(io::ErrorKind::Stale,
             "fingerprint does not match this model/request");
    if (serializeGpuConfig(art.gpu) != serializeGpuConfig(gpu))
        fail(io::ErrorKind::Stale, "tuned for a different GpuConfig");
    if (art.shape != req.shape)
        fail(io::ErrorKind::Stale, "tuned for a different timing shape");

    checkMeasured(art);
    return art;
}

void
verifyTunedPlanFile(const std::string &path,
                    const io::ArtifactLimits &limits)
{
    checkMeasured(parse(path, limits));
}

TuneResult
tuneCached(const runtime::NetworkExecutor &exec, const TuneRequest &req,
           std::uint32_t weights_crc, const std::string &path,
           const io::ArtifactLimits &limits, obs::Observer *obs,
           bool force)
{
    req.validate();

    TuneResult result;
    const auto search = [&](const io::LoadReport &) {
        result = tune(exec, req);
        saveTunedPlan(
            makeTunedPlanArtifact(req, weights_crc, exec.config(), result),
            path);
    };
    if (force)
        search({});
    else
        io::loadOrRebuild(
            path, obs,
            [&] {
                result = resultFromArtifact(loadTunedPlan(
                    path, exec.config(), req, weights_crc, limits));
            },
            search);
    return result;
}

} // namespace sched
} // namespace mflstm
