/**
 * Hardware backend registry (DESIGN.md §17): the registry's contents
 * and lookup contract, the tx1 bit-identity anchor against the
 * hand-rolled tegraX1() config, JSON descriptor round-trips for every
 * entry, the per-backend enumeration rules (int4 twins on dot-unit
 * parts, streamed plans priced out under explicit weight memory), and
 * the headline divergence: tuning the same request on epur picks a
 * different plan than on tx1.
 */

#include <gtest/gtest.h>

#include <string>

#include "hw/backend.hh"
#include "runtime/executor.hh"
#include "sched/persist.hh"
#include "sched/tuner.hh"

namespace mflstm {
namespace hw {
namespace {

TEST(Registry, HoldsTheFourBackendsInOrder)
{
    const std::vector<std::string> names = registry().names();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "tx1");
    EXPECT_EQ(names[1], "tx2");
    EXPECT_EQ(names[2], "dp4a");
    EXPECT_EQ(names[3], "epur");
}

TEST(Registry, LookupContract)
{
    EXPECT_TRUE(registry().contains("dp4a"));
    EXPECT_FALSE(registry().contains("gtx1080"));
    EXPECT_EQ(registry().find("gtx1080"), nullptr);
    EXPECT_THROW(registry().get("gtx1080"), std::out_of_range);
    EXPECT_EQ(registry().get("epur").kind, BackendKind::Accelerator);
    EXPECT_EQ(registry().get("tx1").kind, BackendKind::MobileGpu);
}

TEST(Registry, Tx1IsBitIdenticalToTheHandRolledAnchor)
{
    // The dedup satellite's contract: hw::registry().get("tx1") IS the
    // config every pre-registry caller built by hand, byte for byte
    // (the tuned-plan staleness key, so drift would invalidate caches).
    EXPECT_EQ(sched::serializeGpuConfig(registry().get("tx1").config),
              sched::serializeGpuConfig(gpu::GpuConfig::tegraX1()));
    EXPECT_EQ(sched::serializeGpuConfig(registry().get("tx2").config),
              sched::serializeGpuConfig(gpu::GpuConfig::tegraX2Like()));
}

TEST(Registry, CapabilityFlags)
{
    EXPECT_FALSE(registry().get("tx1").config.int8DotUnits);
    EXPECT_FALSE(registry().get("tx1").config.explicitWeightMemory);
    EXPECT_FALSE(registry().get("tx2").config.int8DotUnits);
    EXPECT_TRUE(registry().get("dp4a").config.int8DotUnits);
    EXPECT_FALSE(registry().get("dp4a").config.explicitWeightMemory);
    EXPECT_TRUE(registry().get("epur").config.explicitWeightMemory);
    // Dot units fold the scales into the epilogue: no dequant issue
    // slots on either dot-unit backend.
    EXPECT_EQ(registry().get("dp4a").config.dequantOpsPerWeight, 0.0);
    EXPECT_EQ(registry().get("epur").config.dequantOpsPerWeight, 0.0);
}

TEST(BackendKindStrings, RoundTrip)
{
    EXPECT_STREQ(toString(BackendKind::MobileGpu), "mobile-gpu");
    EXPECT_STREQ(toString(BackendKind::Accelerator), "accelerator");
    EXPECT_EQ(backendKindFromString("mobile-gpu"),
              BackendKind::MobileGpu);
    EXPECT_EQ(backendKindFromString("accelerator"),
              BackendKind::Accelerator);
    EXPECT_FALSE(backendKindFromString("tpu").has_value());
}

TEST(BackendJson, EveryRegistryEntryRoundTripsBitExactly)
{
    for (const Backend &b : registry().entries()) {
        SCOPED_TRACE(b.id);
        const std::optional<Backend> back =
            parseBackend(serializeBackend(b));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->id, b.id);
        EXPECT_EQ(back->display, b.display);
        EXPECT_EQ(back->kind, b.kind);
        EXPECT_EQ(back->summary, b.summary);
        EXPECT_EQ(back->revision, b.revision);
        // GpuConfig equality through the same byte serialization the
        // tuned-plan artifact uses as its staleness key.
        EXPECT_EQ(sched::serializeGpuConfig(back->config),
                  sched::serializeGpuConfig(b.config));
    }
}

TEST(BackendJson, RejectsMalformedDescriptors)
{
    EXPECT_FALSE(parseBackend("not json").has_value());
    EXPECT_FALSE(parseBackend("{}").has_value());  // no id
    // Wrong-typed fields are rejected, not defaulted.
    std::string s = serializeBackend(registry().get("tx1"));
    const std::string from = "\"kind\":\"mobile-gpu\"";
    s.replace(s.find(from), from.size(), "\"kind\":7");
    EXPECT_FALSE(parseBackend(s).has_value());
}

// --- Per-backend enumeration rules ---------------------------------

sched::TuneRequest
smallRequest()
{
    sched::TuneRequest req;
    req.shape = runtime::NetworkShape::stacked(64, 128, 2, 20);
    req.mts = 4;
    req.modelHidden = 128;
    core::LayerApproxStats s;
    s.sequences = 10;
    s.links = 190;
    s.breaks = 60;
    s.cells = 200;
    s.skippedRows = 0.4 * 200 * 128;
    req.stats = {s, s};
    return req;
}

bool
hasLabel(const std::vector<sched::LayerOption> &opts,
         const std::string &label)
{
    for (const sched::LayerOption &o : opts)
        if (o.label == label)
            return true;
    return false;
}

TEST(BackendRules, Int4TwinsOnlyOnDotUnitBackends)
{
    sched::TuneRequest req = smallRequest();
    req.quant = quant::QuantMode::Int8;

    const auto on_tx1 = sched::enumerateLayerOptions(
        req, 0, {}, {}, registry().get("tx1").config);
    for (const sched::LayerOption &o : on_tx1)
        EXPECT_EQ(o.label.find("-int4"), std::string::npos) << o.label;

    const auto on_dp4a = sched::enumerateLayerOptions(
        req, 0, {}, {}, registry().get("dp4a").config);
    ASSERT_TRUE(hasLabel(on_dp4a, "dense-int4"));
    EXPECT_GT(on_dp4a.size(), on_tx1.size());
    for (const sched::LayerOption &o : on_dp4a) {
        if (o.label.find("-int4") == std::string::npos)
            continue;
        EXPECT_EQ(o.schedule.quant, quant::QuantMode::Int4) << o.label;
        EXPECT_NO_THROW(o.schedule.validate()) << o.label;
    }
}

TEST(BackendRules, Int4TwinsNeedAnInt8Request)
{
    // At fp32 there is nothing to narrow: the rule only fires when the
    // request itself asks for the quantized row.
    const auto opts = sched::enumerateLayerOptions(
        smallRequest(), 0, {}, {}, registry().get("dp4a").config);
    for (const sched::LayerOption &o : opts)
        EXPECT_EQ(o.label.find("-int4"), std::string::npos) << o.label;
}

TEST(BackendRules, ExplicitWeightMemoryPricesOutStreamedPlans)
{
    // hidden=128: U is 4*128*128*4 B = 256 KB, far under epur's
    // pinnable shared capacity, so only dense (the anchor) and
    // persistent options survive.
    const auto opts = sched::enumerateLayerOptions(
        smallRequest(), 0, {}, {}, registry().get("epur").config);
    ASSERT_FALSE(opts.empty());
    for (const sched::LayerOption &o : opts)
        EXPECT_TRUE(o.label == "dense" || o.schedule.persistent())
            << o.label;
    EXPECT_TRUE(hasLabel(opts, "persistent-shared"));

    // A layer too large to pin keeps the streamed menu.
    sched::TuneRequest big = smallRequest();
    big.shape = runtime::NetworkShape::stacked(64, 2048, 2, 20);
    big.modelHidden = 2048;
    for (core::LayerApproxStats &s : big.stats)
        s.skippedRows = 0.4 * 200 * 2048;
    const auto big_opts = sched::enumerateLayerOptions(
        big, 0, {}, {}, registry().get("epur").config);
    EXPECT_TRUE(hasLabel(big_opts, "skip-sw"));
}

TEST(BackendRules, StreamedMenuUnchangedOnTx1)
{
    const auto opts = sched::enumerateLayerOptions(
        smallRequest(), 0, {}, {}, registry().get("tx1").config);
    EXPECT_TRUE(hasLabel(opts, "dense"));
    EXPECT_TRUE(hasLabel(opts, "skip-sw"));
    EXPECT_TRUE(hasLabel(opts, "skip-hw"));
    EXPECT_TRUE(hasLabel(opts, "persistent-shared"));
}

TEST(BackendTune, EpurSelectsADifferentPlanThanTx1)
{
    // The acceptance headline: the same request tuned on the
    // accelerator lands on a different schedule than on the Maxwell
    // anchor (resident plans dominate once weights live on chip).
    const sched::TuneRequest req = smallRequest();
    const runtime::NetworkExecutor tx1(registry().get("tx1").config);
    const runtime::NetworkExecutor epur(registry().get("epur").config);
    const sched::TuneResult a = sched::tune(tx1, req);
    const sched::TuneResult b = sched::tune(epur, req);
    EXPECT_FALSE(a.chosen.plan.decisions == b.chosen.plan.decisions)
        << "tx1 chose " << a.chosen.label << ", epur chose "
        << b.chosen.label;
}

} // namespace
} // namespace hw
} // namespace mflstm
