#include "serve/persist.hh"

#include <type_traits>

#include "quant/qformat.hh"
#include "sched/persist.hh"

namespace mflstm {
namespace serve {

namespace {

using io::ArtifactError;
using io::ErrorKind;

/**
 * The one schema version this build reads and writes. Files of any
 * other version are rejected BadVersion; io::loadOrRebuild quarantines
 * them and the serve CLI or the fleet replica rebuilds cold (DESIGN.md
 * §11).
 */
constexpr std::uint32_t kEngineSchemaVersion = 7;

constexpr std::uint32_t kChunkFingerprint = io::fourcc('E', 'F', 'P', 'R');
constexpr std::uint32_t kChunkShape = io::fourcc('E', 'S', 'H', 'P');
constexpr std::uint32_t kChunkLadder = io::fourcc('E', 'L', 'A', 'D');

constexpr runtime::PlanKind kLastPlanKind = runtime::PlanKind::Persistent;

std::uint32_t
rungPlanTag(std::size_t rung)
{
    return io::indexedTag('E', 'P', rung);
}

/** The fingerprint chunk: what the warm constructor checks. */
template <typename Codec>
void
fingerprintFields(Codec &c, io::FieldRef<Codec, EngineWarmState> s)
{
    c(s.modelWeightsCrc, io::upTo<kLastPlanKind>(s.plan), s.backendId);
}

/** One governor-ladder rung. */
template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, core::ThresholdSet> set)
{
    c(set.alphaInter, set.alphaIntra,
      io::upTo<quant::QuantMode::Int4>(set.quant));
}

/** A rung's plan chunk: the u32 PlanKind label, then its decisions. */
template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, runtime::ExecutionPlan> plan)
{
    c(io::upTo<kLastPlanKind>(plan.kind));
    if constexpr (std::is_same_v<Codec, io::ByteWriter>)
        sched::writeDecisions(c, plan.decisions);
    else
        plan.decisions = sched::readDecisions(c);
}

EngineWarmState
parseState(const io::ArtifactReader &reader)
{
    EngineWarmState state;
    {
        io::ByteReader r = reader.chunk(kChunkFingerprint);
        fingerprintFields(r, state);
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkShape);
        state.shape = sched::readShape(r);
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkLadder);
        const std::uint64_t rungs = r.u64();
        if (rungs == 0 || rungs > r.limits().maxChunks)
            r.fail(ErrorKind::Malformed, "absurd rung count");
        state.ladder.resize(static_cast<std::size_t>(rungs));
        for (core::ThresholdSet &set : state.ladder) {
            fields(r, set);
            if (set.alphaInter < 0.0 || set.alphaIntra < 0.0 ||
                set.alphaIntra >= 1.0)
                r.fail(ErrorKind::Malformed, "threshold out of range");
        }
        r.expectEnd();
    }
    state.plans.resize(state.ladder.size());
    for (std::size_t i = 0; i < state.plans.size(); ++i) {
        io::ByteReader r = reader.chunk(rungPlanTag(i));
        fields(r, state.plans[i]);
        r.expectEnd();
    }
    return state;
}

} // anonymous namespace

void
saveEngineState(const EngineWarmState &state, const std::string &path)
{
    io::ArtifactWriter w(io::kSchemaEngineState, kEngineSchemaVersion);
    fingerprintFields(w.chunk(kChunkFingerprint), state);
    sched::writeShape(w.chunk(kChunkShape), state.shape);
    io::ByteWriter &l = w.chunk(kChunkLadder);
    l.u64(state.ladder.size());
    for (const core::ThresholdSet &set : state.ladder)
        fields(l, set);
    for (std::size_t i = 0; i < state.plans.size(); ++i)
        fields(w.chunk(rungPlanTag(i)), state.plans[i]);
    w.commit(path);
}

void
saveEngineState(const InferenceEngine &engine, const std::string &path)
{
    saveEngineState(engine.exportWarmState(), path);
}

EngineWarmState
loadEngineState(const std::string &path, const io::ArtifactLimits &limits)
{
    const io::ArtifactReader reader(path, io::kSchemaEngineState,
                                    kEngineSchemaVersion, limits);
    return parseState(reader);
}

} // namespace serve
} // namespace mflstm
