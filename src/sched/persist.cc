#include "sched/persist.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>

namespace mflstm {
namespace sched {

namespace {

/**
 * The one schema version this build reads and writes. Files of any
 * other version are rejected BadVersion and re-tuned (DESIGN.md §11).
 */
constexpr std::uint32_t kVersion = 3;

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

void
writeString(io::ByteWriter &w, const std::string &s)
{
    w.u8Array({reinterpret_cast<const std::int8_t *>(s.data()),
               s.size()});
}

std::string
readString(io::ByteReader &r)
{
    const std::vector<std::int8_t> raw = r.u8Array();
    if (raw.empty())
        return {};
    return std::string(reinterpret_cast<const char *>(raw.data()),
                       raw.size());
}

void
checkFinite(double v, const char *what)
{
    if (!std::isfinite(v))
        fail(io::ErrorKind::NonFinite,
             std::string(what) + " is not finite");
}

/** |a - b| within a relative 1e-6 of |b| (guarded near zero). */
bool
close(double a, double b)
{
    return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
}

void
writeFingerprint(io::ByteWriter &w, const TunedPlanFingerprint &fp)
{
    w.u32(fp.weightsCrc);
    w.u32(fp.statsCrc);
    w.u32(fp.quant);
    w.f64(fp.pruneFraction);
    w.u64(fp.batch);
    w.u64(fp.mts);
    w.u64(fp.modelHidden);
    writeString(w, fp.backendId);
}

TunedPlanFingerprint
readFingerprint(io::ByteReader &r)
{
    TunedPlanFingerprint fp;
    fp.weightsCrc = r.u32();
    fp.statsCrc = r.u32();
    fp.quant = r.u32();
    fp.pruneFraction = r.f64();
    fp.batch = r.u64();
    fp.mts = r.u64();
    fp.modelHidden = r.u64();
    fp.backendId = readString(r);
    r.expectEnd();
    return fp;
}

void
writeShape(io::ByteWriter &w, const runtime::NetworkShape &shape)
{
    w.u64(shape.layers.size());
    for (const runtime::LstmLayerShape &l : shape.layers) {
        w.u64(l.inputSize);
        w.u64(l.hiddenSize);
        w.u64(l.length);
    }
}

runtime::NetworkShape
readShape(io::ByteReader &r, const io::ArtifactLimits &limits)
{
    runtime::NetworkShape shape;
    const std::uint64_t count = r.u64();
    if (!count || count > 1024)
        fail(io::ErrorKind::Malformed, "implausible layer count");
    shape.layers.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t in = r.u64();
        const std::uint64_t hid = r.u64();
        const std::uint64_t len = r.u64();
        // fsck lowers and simulates this shape: bound it first.
        for (std::uint64_t dim : {in, hid, len})
            if (dim == 0 || dim > limits.maxDim)
                fail(io::ErrorKind::LimitExceeded, "absurd layer shape");
        shape.layers.push_back({static_cast<std::size_t>(in),
                                static_cast<std::size_t>(hid),
                                static_cast<std::size_t>(len)});
    }
    r.expectEnd();
    return shape;
}

struct Parsed
{
    TunedPlanArtifact artifact;
    std::vector<std::uint8_t> gpuBytes;
};

gpu::GpuConfig
deserializeGpuConfig(io::ByteReader &r)
{
    gpu::GpuConfig cfg;
    cfg.name = readString(r);
    cfg.numSms = r.u32();
    cfg.coresPerSm = r.u32();
    cfg.coreClockGhz = r.f64();
    cfg.warpSize = r.u32();
    cfg.maxThreadsPerSm = r.u32();
    cfg.maxCtasPerSm = r.u32();
    cfg.dramBandwidthGBs = r.f64();
    cfg.dramLatencyNs = r.f64();
    cfg.l2Bytes = r.u64();
    cfg.l2Assoc = r.u32();
    cfg.lineBytes = r.u32();
    cfg.l2BytesPerCycle = r.f64();
    cfg.sharedMemPerSmBytes = r.u64();
    cfg.sharedBytesPerCyclePerSm = r.f64();
    cfg.kernelLaunchUs = r.f64();
    cfg.streamedLaunchFraction = r.f64();
    cfg.barrierCostCycles = r.f64();
    cfg.reconfigPenalty = r.f64();
    cfg.socStaticW = r.f64();
    cfg.gpuIdleW = r.f64();
    cfg.gpuIssueActiveW = r.f64();
    cfg.dramPjPerByte = r.f64();
    cfg.l2PjPerByte = r.f64();
    cfg.sharedPjPerByte = r.f64();
    cfg.fmaPjPerFlop = r.f64();
    cfg.dequantPjPerWeight = r.f64();
    cfg.dequantOpsPerWeight = r.f64();
    cfg.crmThreadsPerCycle = r.u32();
    cfg.crmPipelineCycles = r.u32();
    cfg.crmPjPerThread = r.f64();
    cfg.crmStaticW = r.f64();
    cfg.regFileBytesPerSm = r.u64();
    cfg.sharedResidencyFraction = r.f64();
    cfg.regfileResidencyFraction = r.f64();
    cfg.residencyOccupancyPenalty = r.f64();
    cfg.int8DotUnits = r.u32() != 0;
    cfg.explicitWeightMemory = r.u32() != 0;
    r.expectEnd();
    return cfg;
}

/** Parse + structurally validate every chunk (no staleness checks). */
Parsed
parse(const std::string &path, const io::ArtifactLimits &limits)
{
    io::ArtifactReader reader(path, io::kSchemaTunedPlan, limits);
    const std::uint32_t version = reader.schemaVersion();
    if (version != kVersion)
        fail(io::ErrorKind::BadVersion,
             "schema version " + std::to_string(version) +
                 " unsupported");

    Parsed out;
    {
        io::ByteReader r = reader.chunk(kChunkFingerprint);
        out.artifact.fingerprint = readFingerprint(r);
    }
    {
        io::ByteReader r = reader.chunk(kChunkGpu);
        out.artifact.gpu = deserializeGpuConfig(r);
        out.gpuBytes = serializeGpuConfig(out.artifact.gpu);
    }
    {
        io::ByteReader r = reader.chunk(kChunkShape);
        out.artifact.shape = readShape(r, limits);
    }
    {
        io::ByteReader r = reader.chunk(kChunkDecisions);
        out.artifact.decisions = readDecisions(r, limits);
        r.expectEnd();
    }
    if (out.artifact.decisions.layers.size() !=
        out.artifact.shape.layers.size())
        fail(io::ErrorKind::Malformed,
             "decision/shape layer count mismatch");
    {
        io::ByteReader r = reader.chunk(kChunkMeasured);
        out.artifact.timeUs = r.f64();
        out.artifact.dramBytes = r.f64();
        out.artifact.chosenLabel = readString(r);
        out.artifact.referenceLabel = readString(r);
        out.artifact.referenceTimeUs = r.f64();
        out.artifact.referenceDramBytes = r.f64();
        const std::uint64_t labels = r.u64();
        if (labels != out.artifact.shape.layers.size())
            fail(io::ErrorKind::Malformed,
                 "layer label count mismatch");
        for (std::uint64_t i = 0; i < labels; ++i)
            out.artifact.layerLabels.push_back(readString(r));
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkCandidates);
        const std::uint64_t count = r.u64();
        if (count > 4096)
            fail(io::ErrorKind::Malformed,
                 "implausible candidate count");
        for (std::uint64_t i = 0; i < count; ++i) {
            CandidateSummary c;
            c.label = readString(r);
            c.timeUs = r.f64();
            c.dramBytes = r.f64();
            out.artifact.candidates.push_back(std::move(c));
        }
        r.expectEnd();
    }

    checkFinite(out.artifact.timeUs, "measured time");
    checkFinite(out.artifact.dramBytes, "measured bytes");
    checkFinite(out.artifact.referenceTimeUs, "reference time");
    checkFinite(out.artifact.referenceDramBytes, "reference bytes");
    if (out.artifact.timeUs < 0.0 || out.artifact.dramBytes < 0.0)
        fail(io::ErrorKind::Malformed, "negative measured score");
    return out;
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
    for (const core::LayerApproxStats &st : stats) {
        w.u64(st.sequences);
        w.u64(st.links);
        w.u64(st.breaks);
        w.u64(st.cells);
        w.f64(st.skippedRows);
    }
    return io::crc32(w.bytes().data(), w.bytes().size());
}

namespace {

[[noreturn]] void
failDecisions(io::ErrorKind kind, const std::string &msg)
{
    throw io::ArtifactError(kind, "schedule decisions: " + msg);
}

template <typename Enum>
Enum
readEnum(io::ByteReader &r, Enum max, const char *what)
{
    const std::uint32_t v = r.u32();
    if (v > static_cast<std::uint32_t>(max))
        failDecisions(io::ErrorKind::Malformed,
                      std::string("unknown ") + what);
    return static_cast<Enum>(v);
}

double
readFinite(io::ByteReader &r, const char *what)
{
    const double v = r.f64();
    if (!std::isfinite(v))
        failDecisions(io::ErrorKind::NonFinite,
                      std::string("non-finite ") + what);
    return v;
}

} // anonymous namespace

void
writeDecisions(io::ByteWriter &w,
               const runtime::ScheduleDecisions &decisions)
{
    w.u64(decisions.layers.size());
    for (const runtime::LayerSchedule &ls : decisions.layers) {
        std::vector<std::uint64_t> sizes(ls.tissueSizes.begin(),
                                         ls.tissueSizes.end());
        w.u64Array(sizes);
        w.u32(static_cast<std::uint32_t>(ls.skipPath));
        w.f64(ls.skipFraction);
        w.u32(static_cast<std::uint32_t>(ls.flagFusion));
        w.u32(static_cast<std::uint32_t>(ls.quant));
        w.u32(ls.prunedCsr ? 1 : 0);
        w.f64(ls.pruneFraction);
        w.u64(ls.batch);
        w.u32(static_cast<std::uint32_t>(ls.residency));
    }
}

runtime::ScheduleDecisions
readDecisions(io::ByteReader &r, const io::ArtifactLimits &limits)
{
    runtime::ScheduleDecisions decisions;
    const std::uint64_t count = r.u64();
    if (!count || count > 1024)
        failDecisions(io::ErrorKind::Malformed, "implausible layer count");
    if (count > limits.maxDim)
        failDecisions(io::ErrorKind::LimitExceeded, "absurd layer count");
    decisions.layers.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        runtime::LayerSchedule &ls = decisions.layers.emplace_back();
        for (std::uint64_t t : r.u64Array()) {
            if (t > limits.maxDim)
                failDecisions(io::ErrorKind::LimitExceeded,
                              "absurd tissue size");
            ls.tissueSizes.push_back(static_cast<std::size_t>(t));
        }
        ls.skipPath =
            readEnum(r, runtime::SkipPath::HwCrm, "skip path");
        ls.skipFraction = readFinite(r, "skipFraction");
        ls.flagFusion = readEnum(r, runtime::FlagFusion::FusedEpilogue,
                                 "flag fusion");
        ls.quant = readEnum(r, quant::QuantMode::Int4, "quant mode");
        ls.prunedCsr = r.u32() != 0;
        ls.pruneFraction = readFinite(r, "pruneFraction");
        const std::uint64_t batch = r.u64();
        if (batch > limits.maxDim)
            failDecisions(io::ErrorKind::LimitExceeded,
                          "absurd layer batch");
        ls.batch = static_cast<std::size_t>(batch);
        ls.residency = readEnum(r, runtime::WeightResidency::Regfile,
                                "residency");
    }
    try {
        decisions.validate();
    } catch (const std::invalid_argument &e) {
        failDecisions(io::ErrorKind::Malformed, e.what());
    }
    return decisions;
}

namespace {

void
serializeGpuConfigInto(io::ByteWriter &w, const gpu::GpuConfig &cfg)
{
    writeString(w, cfg.name);
    w.u32(cfg.numSms);
    w.u32(cfg.coresPerSm);
    w.f64(cfg.coreClockGhz);
    w.u32(cfg.warpSize);
    w.u32(cfg.maxThreadsPerSm);
    w.u32(cfg.maxCtasPerSm);
    w.f64(cfg.dramBandwidthGBs);
    w.f64(cfg.dramLatencyNs);
    w.u64(cfg.l2Bytes);
    w.u32(cfg.l2Assoc);
    w.u32(cfg.lineBytes);
    w.f64(cfg.l2BytesPerCycle);
    w.u64(cfg.sharedMemPerSmBytes);
    w.f64(cfg.sharedBytesPerCyclePerSm);
    w.f64(cfg.kernelLaunchUs);
    w.f64(cfg.streamedLaunchFraction);
    w.f64(cfg.barrierCostCycles);
    w.f64(cfg.reconfigPenalty);
    w.f64(cfg.socStaticW);
    w.f64(cfg.gpuIdleW);
    w.f64(cfg.gpuIssueActiveW);
    w.f64(cfg.dramPjPerByte);
    w.f64(cfg.l2PjPerByte);
    w.f64(cfg.sharedPjPerByte);
    w.f64(cfg.fmaPjPerFlop);
    w.f64(cfg.dequantPjPerWeight);
    w.f64(cfg.dequantOpsPerWeight);
    w.u32(cfg.crmThreadsPerCycle);
    w.u32(cfg.crmPipelineCycles);
    w.f64(cfg.crmPjPerThread);
    w.f64(cfg.crmStaticW);
    w.u64(cfg.regFileBytesPerSm);
    w.f64(cfg.sharedResidencyFraction);
    w.f64(cfg.regfileResidencyFraction);
    w.f64(cfg.residencyOccupancyPenalty);
    w.u32(cfg.int8DotUnits ? 1 : 0);
    w.u32(cfg.explicitWeightMemory ? 1 : 0);
}

} // anonymous namespace

std::vector<std::uint8_t>
serializeGpuConfig(const gpu::GpuConfig &cfg)
{
    io::ByteWriter w;
    serializeGpuConfigInto(w, cfg);
    return w.bytes();
}

TunedPlanArtifact
makeTunedPlanArtifact(const TuneRequest &req, std::uint32_t weights_crc,
                      const gpu::GpuConfig &gpu, const TuneResult &result)
{
    TunedPlanArtifact art;
    art.fingerprint.weightsCrc = weights_crc;
    art.fingerprint.statsCrc = statsCrc(req.stats);
    art.fingerprint.quant = static_cast<std::uint32_t>(req.quant);
    art.fingerprint.pruneFraction = req.pruneFraction;
    art.fingerprint.batch = req.batch;
    art.fingerprint.mts = req.mts;
    art.fingerprint.modelHidden = req.modelHidden;
    art.fingerprint.backendId = req.backendId;
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
    writeFingerprint(writer.chunk(kChunkFingerprint),
                     artifact.fingerprint);
    serializeGpuConfigInto(writer.chunk(kChunkGpu), artifact.gpu);
    writeShape(writer.chunk(kChunkShape), artifact.shape);
    writeDecisions(writer.chunk(kChunkDecisions), artifact.decisions);
    {
        io::ByteWriter &w = writer.chunk(kChunkMeasured);
        w.f64(artifact.timeUs);
        w.f64(artifact.dramBytes);
        writeString(w, artifact.chosenLabel);
        writeString(w, artifact.referenceLabel);
        w.f64(artifact.referenceTimeUs);
        w.f64(artifact.referenceDramBytes);
        w.u64(artifact.layerLabels.size());
        for (const std::string &label : artifact.layerLabels)
            writeString(w, label);
    }
    {
        io::ByteWriter &w = writer.chunk(kChunkCandidates);
        w.u64(artifact.candidates.size());
        for (const CandidateSummary &c : artifact.candidates) {
            writeString(w, c.label);
            w.f64(c.timeUs);
            w.f64(c.dramBytes);
        }
    }
    writer.commit(path);
}

TunedPlanArtifact
loadTunedPlan(const std::string &path, const gpu::GpuConfig &gpu,
              const TuneRequest &req, std::uint32_t weights_crc,
              const io::ArtifactLimits &limits, obs::Observer *obs)
{
    try {
        Parsed parsed = parse(path, limits);
        TunedPlanArtifact &art = parsed.artifact;

        TunedPlanFingerprint want;
        want.weightsCrc = weights_crc;
        want.statsCrc = statsCrc(req.stats);
        want.quant = static_cast<std::uint32_t>(req.quant);
        want.pruneFraction = req.pruneFraction;
        want.batch = req.batch;
        want.mts = req.mts;
        want.modelHidden = req.modelHidden;
        want.backendId = req.backendId;
        if (!(art.fingerprint == want))
            fail(io::ErrorKind::Stale,
                 "fingerprint does not match this model/request");
        if (parsed.gpuBytes != serializeGpuConfig(gpu))
            fail(io::ErrorKind::Stale,
                 "tuned for a different GpuConfig");
        if (art.shape != req.shape)
            fail(io::ErrorKind::Stale,
                 "tuned for a different timing shape");

        checkMeasured(art);
        return art;
    } catch (const io::ArtifactError &e) {
        io::recordRejection(obs, e.kind());
        throw;
    }
}

void
verifyTunedPlanFile(const std::string &path,
                    const io::ArtifactLimits &limits)
{
    Parsed parsed = parse(path, limits);
    checkMeasured(parsed.artifact);
}

TuneResult
tuneCached(const runtime::NetworkExecutor &exec, const TuneRequest &req,
           std::uint32_t weights_crc, const std::string &path,
           const io::ArtifactLimits &limits, obs::Observer *obs,
           bool force)
{
    req.validate();

    std::error_code ec;
    if (!force && std::filesystem::exists(path, ec)) {
        try {
            return resultFromArtifact(loadTunedPlan(
                path, exec.config(), req, weights_crc, limits, obs));
        } catch (const io::ArtifactError &e) {
            // Rejection already counted by loadTunedPlan; move the bad
            // file aside and fall through to a fresh search.
            if (e.kind() != io::ErrorKind::Io)
                io::quarantine(path);
        }
    }

    TuneResult fresh = tune(exec, req);
    saveTunedPlan(
        makeTunedPlanArtifact(req, weights_crc, exec.config(), fresh),
        path);
    return fresh;
}

} // namespace sched
} // namespace mflstm
