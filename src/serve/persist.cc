#include "serve/persist.hh"

#include <cmath>

#include "quant/qformat.hh"
#include "sched/persist.hh"

namespace mflstm {
namespace serve {

namespace {

using io::ArtifactError;
using io::ErrorKind;

/**
 * The one schema version this build reads and writes. Files of any
 * other version are rejected BadVersion; the serve CLI and the fleet
 * replica quarantine them and rebuild cold (DESIGN.md §11).
 */
constexpr std::uint32_t kEngineSchemaVersion = 6;

constexpr std::uint32_t kMaxQuantMode =
    static_cast<std::uint32_t>(quant::QuantMode::Int4);

quant::QuantMode
readQuantMode(io::ByteReader &r, const std::string &path)
{
    const std::uint32_t qm = r.u32();
    if (qm > kMaxQuantMode)
        throw ArtifactError(ErrorKind::Malformed,
                            "loadEngineState: " + path +
                                ": unknown quant mode " +
                                std::to_string(qm));
    return static_cast<quant::QuantMode>(qm);
}
constexpr std::uint32_t kChunkFingerprint = io::fourcc('E', 'F', 'P', 'R');
constexpr std::uint32_t kChunkShape = io::fourcc('E', 'S', 'H', 'P');
constexpr std::uint32_t kChunkLadder = io::fourcc('E', 'L', 'A', 'D');

constexpr std::uint32_t kMaxPlanKind =
    static_cast<std::uint32_t>(runtime::PlanKind::Persistent);

std::uint32_t
rungPlanTag(std::size_t rung)
{
    return io::indexedTag('E', 'P', rung);
}

void
requireFinite(double v, const char *what, const std::string &path)
{
    if (!std::isfinite(v))
        throw ArtifactError(ErrorKind::NonFinite,
                            "loadEngineState: " + path +
                                ": non-finite " + what);
}

/** A rung's plan chunk: the u32 PlanKind label, then its decisions. */
void
writePlan(io::ByteWriter &w, const runtime::ExecutionPlan &plan)
{
    w.u32(static_cast<std::uint32_t>(plan.kind));
    sched::writeDecisions(w, plan.decisions);
}

runtime::PlanKind
readPlanKind(io::ByteReader &r, const std::string &path)
{
    const std::uint32_t kind = r.u32();
    if (kind > kMaxPlanKind)
        throw ArtifactError(ErrorKind::Malformed,
                            "loadEngineState: " + path +
                                ": unknown plan kind " +
                                std::to_string(kind));
    return static_cast<runtime::PlanKind>(kind);
}

runtime::ExecutionPlan
readPlan(io::ByteReader &r, const io::ArtifactLimits &limits,
         const std::string &path)
{
    runtime::ExecutionPlan plan;
    plan.kind = readPlanKind(r, path);
    plan.decisions = sched::readDecisions(r, limits);
    r.expectEnd();
    return plan;
}

EngineWarmState
parseState(const io::ArtifactReader &reader,
           const io::ArtifactLimits &limits, const std::string &path)
{
    const std::uint32_t version = reader.schemaVersion();
    if (version != kEngineSchemaVersion)
        throw ArtifactError(
            ErrorKind::BadVersion,
            "loadEngineState: " + path +
                ": unsupported engine-state schema version " +
                std::to_string(version));

    EngineWarmState state;
    {
        io::ByteReader r = reader.chunk(kChunkFingerprint);
        state.modelWeightsCrc = r.u32();
        state.plan = readPlanKind(r, path);
        state.pruneFraction = r.f64();
        requireFinite(state.pruneFraction, "pruneFraction", path);
        const std::uint32_t tuned = r.u32();
        if (tuned > 1)
            throw ArtifactError(ErrorKind::Malformed,
                                "loadEngineState: " + path +
                                    ": bad tunedPlans flag");
        state.tunedPlans = tuned != 0;
        const std::vector<std::int8_t> raw = r.u8Array();
        if (!raw.empty())
            state.backendId.assign(
                reinterpret_cast<const char *>(raw.data()), raw.size());
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkShape);
        const std::uint64_t layers = r.u64();
        if (layers == 0 || layers > limits.maxDim)
            throw ArtifactError(ErrorKind::LimitExceeded,
                                "loadEngineState: " + path +
                                    ": absurd shape layer count");
        for (std::uint64_t l = 0; l < layers; ++l) {
            runtime::LstmLayerShape ls;
            const std::uint64_t in = r.u64();
            const std::uint64_t hid = r.u64();
            const std::uint64_t len = r.u64();
            if (in == 0 || hid == 0 || len == 0 ||
                in > limits.maxDim || hid > limits.maxDim ||
                len > limits.maxDim)
                throw ArtifactError(ErrorKind::LimitExceeded,
                                    "loadEngineState: " + path +
                                        ": absurd layer shape");
            ls.inputSize = static_cast<std::size_t>(in);
            ls.hiddenSize = static_cast<std::size_t>(hid);
            ls.length = static_cast<std::size_t>(len);
            state.shape.layers.push_back(ls);
        }
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkLadder);
        const std::uint64_t rungs = r.u64();
        if (rungs == 0 || rungs > limits.maxChunks)
            throw ArtifactError(ErrorKind::Malformed,
                                "loadEngineState: " + path +
                                    ": absurd rung count");
        for (std::uint64_t i = 0; i < rungs; ++i) {
            core::ThresholdSet set;
            set.alphaInter = r.f64();
            set.alphaIntra = r.f64();
            set.quant = readQuantMode(r, path);
            requireFinite(set.alphaInter, "alphaInter", path);
            requireFinite(set.alphaIntra, "alphaIntra", path);
            if (set.alphaInter < 0.0 || set.alphaIntra < 0.0 ||
                set.alphaIntra >= 1.0)
                throw ArtifactError(ErrorKind::Malformed,
                                    "loadEngineState: " + path +
                                        ": threshold out of range");
            state.ladder.push_back(set);
        }
        r.expectEnd();
    }
    for (std::size_t i = 0; i < state.ladder.size(); ++i) {
        io::ByteReader r = reader.chunk(rungPlanTag(i));
        state.plans.push_back(readPlan(r, limits, path));
    }
    return state;
}

} // anonymous namespace

void
saveEngineState(const EngineWarmState &state, const std::string &path)
{
    io::ArtifactWriter w(io::kSchemaEngineState, kEngineSchemaVersion);

    io::ByteWriter &f = w.chunk(kChunkFingerprint);
    f.u32(state.modelWeightsCrc);
    f.u32(static_cast<std::uint32_t>(state.plan));
    f.f64(state.pruneFraction);
    f.u32(state.tunedPlans ? 1 : 0);
    f.u8Array({reinterpret_cast<const std::int8_t *>(
                   state.backendId.data()),
               state.backendId.size()});

    io::ByteWriter &s = w.chunk(kChunkShape);
    s.u64(state.shape.layers.size());
    for (const runtime::LstmLayerShape &ls : state.shape.layers) {
        s.u64(ls.inputSize);
        s.u64(ls.hiddenSize);
        s.u64(ls.length);
    }

    io::ByteWriter &l = w.chunk(kChunkLadder);
    l.u64(state.ladder.size());
    for (const core::ThresholdSet &set : state.ladder) {
        l.f64(set.alphaInter);
        l.f64(set.alphaIntra);
        l.u32(static_cast<std::uint32_t>(set.quant));
    }

    for (std::size_t i = 0; i < state.plans.size(); ++i)
        writePlan(w.chunk(rungPlanTag(i)), state.plans[i]);

    w.commit(path);
}

void
saveEngineState(const InferenceEngine &engine, const std::string &path)
{
    saveEngineState(engine.exportWarmState(), path);
}

EngineWarmState
loadEngineState(const std::string &path, const io::ArtifactLimits &limits,
                obs::Observer *obs)
{
    try {
        const io::ArtifactReader reader(path, io::kSchemaEngineState,
                                        limits);
        EngineWarmState state = parseState(reader, limits, path);
        if (state.ladder.size() != state.plans.size())
            throw ArtifactError(ErrorKind::Malformed,
                                "loadEngineState: " + path +
                                    ": ladder/plan count mismatch");
        return state;
    } catch (const ArtifactError &e) {
        io::recordRejection(obs, e.kind());
        throw;
    }
}

void
verifyEngineStateFile(const std::string &path,
                      const io::ArtifactLimits &limits)
{
    (void)loadEngineState(path, limits);
}

} // namespace serve
} // namespace mflstm
