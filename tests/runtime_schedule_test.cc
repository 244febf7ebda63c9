/**
 * ScheduleDecisions API (DESIGN.md §14): parser round-trips, the
 * per-layer validation rules, the preset decision rules, the new
 * searchable software+fused point, and the persistent weight-residency
 * schedule family (DESIGN.md §15).
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "gpu/config.hh"
#include "gpu/sm.hh"
#include "runtime/lowering.hh"
#include "runtime/plan.hh"
#include "runtime/schedule.hh"

namespace mflstm {
namespace runtime {
namespace {

// ---------------------------------------------------------------------
// Parser round-trips

TEST(PlanKindParse, RoundTripsEveryKind)
{
    const PlanKind kinds[] = {
        PlanKind::Baseline,    PlanKind::InterCell,
        PlanKind::IntraCellSw, PlanKind::IntraCellHw,
        PlanKind::Combined,    PlanKind::ZeroPruning,
        PlanKind::Tuned,       PlanKind::Persistent,
    };
    for (PlanKind k : kinds) {
        const auto parsed = planKindFromString(toString(k));
        ASSERT_TRUE(parsed.has_value()) << toString(k);
        EXPECT_EQ(*parsed, k);
    }
}

TEST(PlanKindParse, AcceptsHistoricalCliAliases)
{
    EXPECT_EQ(planKindFromString("inter"), PlanKind::InterCell);
    EXPECT_EQ(planKindFromString("intra-sw"), PlanKind::IntraCellSw);
    EXPECT_EQ(planKindFromString("intra-hw"), PlanKind::IntraCellHw);
}

TEST(PlanKindParse, RejectsUnknownSpellings)
{
    EXPECT_FALSE(planKindFromString("").has_value());
    EXPECT_FALSE(planKindFromString("Combined").has_value());
    EXPECT_FALSE(planKindFromString("turbo").has_value());
}

TEST(ScheduleEnumParse, RoundTripsSkipPathAndFlagFusion)
{
    for (SkipPath p :
         {SkipPath::Off, SkipPath::Software, SkipPath::HwCrm}) {
        const auto parsed = parseSkipPath(toString(p));
        ASSERT_TRUE(parsed.has_value()) << toString(p);
        EXPECT_EQ(*parsed, p);
    }
    for (FlagFusion f :
         {FlagFusion::Standalone, FlagFusion::FusedEpilogue}) {
        const auto parsed = parseFlagFusion(toString(f));
        ASSERT_TRUE(parsed.has_value()) << toString(f);
        EXPECT_EQ(*parsed, f);
    }
    EXPECT_FALSE(parseSkipPath("warp").has_value());
    EXPECT_FALSE(parseFlagFusion("inline").has_value());
}

// ---------------------------------------------------------------------
// Validation rules

TEST(LayerScheduleValidate, AcceptsEveryCanonicalPresetPoint)
{
    LayerSchedule dense;
    EXPECT_NO_THROW(dense.validate());

    LayerSchedule sw;
    sw.skipPath = SkipPath::Software;
    sw.skipFraction = 0.3;
    EXPECT_NO_THROW(sw.validate());

    LayerSchedule hw = sw;
    hw.skipPath = SkipPath::HwCrm;
    hw.flagFusion = FlagFusion::FusedEpilogue;
    EXPECT_NO_THROW(hw.validate());

    LayerSchedule both = hw;
    both.tissueSizes = {4, 3, 3};
    EXPECT_NO_THROW(both.validate());

    LayerSchedule csr;
    csr.prunedCsr = true;
    csr.pruneFraction = 0.37;
    EXPECT_NO_THROW(csr.validate());
}

TEST(LayerScheduleValidate, RejectsHwCrmWithoutFusedEpilogue)
{
    LayerSchedule ls;
    ls.skipPath = SkipPath::HwCrm;
    ls.skipFraction = 0.3;
    ls.flagFusion = FlagFusion::Standalone;
    EXPECT_THROW(ls.validate(), std::invalid_argument);
}

TEST(LayerScheduleValidate, RejectsTissuesWithSoftwareSkip)
{
    LayerSchedule ls;
    ls.tissueSizes = {4, 3, 3};
    ls.skipPath = SkipPath::Software;
    ls.skipFraction = 0.3;
    ls.flagFusion = FlagFusion::FusedEpilogue;
    EXPECT_THROW(ls.validate(), std::invalid_argument);
}

TEST(LayerScheduleValidate, RejectsBadFractions)
{
    LayerSchedule ls;
    ls.skipPath = SkipPath::Software;
    ls.skipFraction = 1.5;
    EXPECT_THROW(ls.validate(), std::invalid_argument);
    ls.skipFraction = -0.1;
    EXPECT_THROW(ls.validate(), std::invalid_argument);
    ls.skipFraction = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(ls.validate(), std::invalid_argument);
}

TEST(LayerScheduleValidate, RejectsCsrComposedWithAnything)
{
    LayerSchedule ls;
    ls.prunedCsr = true;
    ls.pruneFraction = 0.37;

    LayerSchedule with_tissues = ls;
    with_tissues.tissueSizes = {4, 3, 3};
    EXPECT_THROW(with_tissues.validate(), std::invalid_argument);

    LayerSchedule with_skip = ls;
    with_skip.skipPath = SkipPath::Software;
    with_skip.skipFraction = 0.3;
    EXPECT_THROW(with_skip.validate(), std::invalid_argument);

    LayerSchedule quantized = ls;
    quantized.quant = quant::QuantMode::Int8;
    EXPECT_THROW(quantized.validate(), std::invalid_argument);
}

TEST(LayerScheduleValidate, RejectsPruneFractionWithoutCsr)
{
    LayerSchedule ls;
    ls.pruneFraction = 0.37;
    EXPECT_THROW(ls.validate(), std::invalid_argument);
}

TEST(ScheduleDecisionsValidate, NamesTheOffendingLayer)
{
    ScheduleDecisions d;
    d.layers.resize(2);
    d.layers[1].skipPath = SkipPath::HwCrm;
    d.layers[1].skipFraction = 0.3;
    try {
        d.validate();
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("layer 1"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Preset <-> decision bit-identity

void
expectKernelEqual(const gpu::KernelDesc &a, const gpu::KernelDesc &b,
                  std::size_t i)
{
    SCOPED_TRACE("kernel " + std::to_string(i) + ": " + a.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.klass, b.klass);
    EXPECT_EQ(a.ctas, b.ctas);
    EXPECT_EQ(a.threadsPerCta, b.threadsPerCta);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.dramReadBytes, b.dramReadBytes);
    EXPECT_EQ(a.dramWriteBytes, b.dramWriteBytes);
    EXPECT_EQ(a.l2AccessBytes, b.l2AccessBytes);
    EXPECT_EQ(a.sharedBytes, b.sharedBytes);
    EXPECT_EQ(a.dramWeightBytes, b.dramWeightBytes);
    EXPECT_EQ(a.quantWeightElems, b.quantWeightElems);
    EXPECT_EQ(a.weightStream, b.weightStream);
    EXPECT_EQ(a.dramScaleBytes, b.dramScaleBytes);
    EXPECT_EQ(a.dramCrmMetaBytes, b.dramCrmMetaBytes);
    EXPECT_EQ(a.dramSpillBytes, b.dramSpillBytes);
    EXPECT_EQ(a.dramResidencyReloadBytes, b.dramResidencyReloadBytes);
    EXPECT_EQ(a.residency, b.residency);
    EXPECT_EQ(a.residencyPinnedBytes, b.residencyPinnedBytes);
    EXPECT_EQ(a.syncsPerCta, b.syncsPerCta);
    EXPECT_EQ(a.divergenceFactor, b.divergenceFactor);
    EXPECT_EQ(a.coalescingFactor, b.coalescingFactor);
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.timestep, b.timestep);
    EXPECT_EQ(a.tissue, b.tissue);
    EXPECT_EQ(a.hasRowSkipArg, b.hasRowSkipArg);
    EXPECT_EQ(a.disabledThreads, b.disabledThreads);
}

void
expectTraceEqual(const gpu::KernelTrace &a, const gpu::KernelTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectKernelEqual(a[i], b[i], i);
}

TEST(ScheduleBitIdentity, ZeroPruningForcesFp32Csr)
{
    const ExecutionPlan plan = ExecutionPlan::preset(
        PlanKind::ZeroPruning, 2, quant::QuantMode::Int8, {}, {}, 0.37);
    ASSERT_EQ(plan.decisions.layers.size(), 2u);
    const LayerSchedule ls = plan.layerSchedule(0);
    EXPECT_TRUE(ls.prunedCsr);
    EXPECT_EQ(ls.quant, quant::QuantMode::Fp32);
    EXPECT_EQ(ls.pruneFraction, 0.37);
}

TEST(ScheduleBitIdentity, LayersBeyondTheDecisionsAreDenseFp32)
{
    const ExecutionPlan plan = ExecutionPlan::preset(
        PlanKind::Combined, 1, quant::QuantMode::Int8, {{4, 4}}, {0.3});
    EXPECT_EQ(plan.layerSchedule(0).quant, quant::QuantMode::Int8);
    EXPECT_EQ(plan.layerSchedule(1), LayerSchedule{});
    EXPECT_EQ(ExecutionPlan{}.layerSchedule(0), LayerSchedule{});
}

// ---------------------------------------------------------------------
// The point the PlanKind enum never named: software skip + fused flags

TEST(ScheduleNewPoints, SoftwareSkipWithFusedEpilogueDropsScanKernel)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const Lowering lowering(cfg);
    const NetworkShape shape = NetworkShape::stacked(32, 64, 1, 10);

    ScheduleDecisions d;
    LayerSchedule ls;
    ls.skipPath = SkipPath::Software;
    ls.skipFraction = 0.3;
    ls.flagFusion = FlagFusion::FusedEpilogue;
    d.layers = {ls};
    const ExecutionPlan plan = ExecutionPlan::fromDecisions(d);

    const gpu::KernelTrace trace = lowering.lower(shape, plan);
    // inputSgemm + (fused U_o, row-skip U_fic, lstm_ew) per cell: the
    // standalone DRS scan and its extra element-wise pass never launch.
    EXPECT_EQ(trace.size(), 1 + 3 * shape.layers[0].length);
    for (const gpu::KernelDesc &k : trace)
        EXPECT_NE(k.klass, gpu::KernelClass::Drs) << k.name;

    // The software grid stays divergent (that is what distinguishes it
    // from the hw-crm point) and the U_o epilogue carries flag traffic.
    bool saw_fused = false, saw_divergent = false;
    for (const gpu::KernelDesc &k : trace) {
        if (k.name.find("+flags") != std::string::npos)
            saw_fused = true;
        if (k.divergenceFactor > 1.0)
            saw_divergent = true;
    }
    EXPECT_TRUE(saw_fused);
    EXPECT_TRUE(saw_divergent);
}

TEST(ScheduleNewPoints, PerLayerBatchOverrideInheritsWhenZero)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const Lowering lowering(cfg);
    const NetworkShape shape = NetworkShape::stacked(32, 64, 1, 4);

    ScheduleDecisions d;
    d.layers.resize(1);
    d.layers[0].batch = 2;
    const ExecutionPlan pinned = ExecutionPlan::fromDecisions(d);

    ExecutionPlan inherit;
    inherit.kind = PlanKind::Baseline;

    // batch=2 pinned in the decision == batch=2 via the run request.
    expectTraceEqual(lowering.lower(shape, pinned, 1),
                     lowering.lower(shape, inherit, 2));
}

// ---------------------------------------------------------------------
// Persistent residency

TEST(Residency, ValidateRejectsSkipAndCsrCompositions)
{
    LayerSchedule ls;
    ls.residency = WeightResidency::Regfile;
    EXPECT_NO_THROW(ls.validate());

    LayerSchedule skip = ls;
    skip.skipPath = SkipPath::Software;
    skip.skipFraction = 0.3;
    EXPECT_THROW(skip.validate(), std::invalid_argument);

    LayerSchedule csr = ls;
    csr.prunedCsr = true;
    csr.pruneFraction = 0.37;
    EXPECT_THROW(csr.validate(), std::invalid_argument);
}

TEST(Residency, PersistentLayerLowersToOneWeightKernel)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const Lowering lowering(cfg);
    const NetworkShape shape = NetworkShape::stacked(32, 64, 1, 6);

    ScheduleDecisions d;
    d.layers.resize(1);
    d.layers[0].residency = WeightResidency::Regfile;
    const gpu::KernelTrace trace =
        lowering.lower(shape, ExecutionPlan::fromDecisions(d), 1);

    std::size_t persistent = 0;
    for (const gpu::KernelDesc &k : trace)
        if (k.klass == gpu::KernelClass::Persistent)
            ++persistent;
    // One input GEMM plus exactly one persistent recurrent kernel; the
    // per-timestep cell grids are folded into the resident launch.
    ASSERT_EQ(persistent, 1u);
    ASSERT_EQ(trace.size(), 2u);
    const gpu::KernelDesc &pk = trace.back();
    EXPECT_EQ(pk.residency, gpu::WeightResidency::Regfile);
    EXPECT_GT(pk.residencyPinnedBytes, 0.0);
    EXPECT_EQ(pk.syncsPerCta, shape.layers[0].length);
}

TEST(Residency, ResidentBytesChargedOncePerSequence)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const Lowering lowering(cfg);
    const LstmLayerShape shape{64, 64, 10};

    const gpu::KernelDesc pk = lowering.persistentLayerKernel(
        shape, gpu::WeightResidency::Regfile, shape.length,
        KernelBuildCtx{1});
    // h=64 fp32 U fits the register-file budget entirely: the weight
    // stream equals the footprint (once), with no reload traffic.
    const double footprint = 4.0 * 64.0 * 64.0 * 4.0;
    EXPECT_DOUBLE_EQ(pk.dramWeightBytes, footprint);
    EXPECT_DOUBLE_EQ(pk.dramResidencyReloadBytes, 0.0);
    EXPECT_DOUBLE_EQ(pk.residencyPinnedBytes, footprint);
    // fp32 weights stream no scale vector and dequantize nothing.
    EXPECT_DOUBLE_EQ(pk.dramScaleBytes, 0.0);
    EXPECT_DOUBLE_EQ(pk.quantWeightElems, 0.0);
}

TEST(Residency, OversizedFootprintSpillsAndReloads)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const Lowering lowering(cfg);
    // h=650 fp32: 4h^2*4 = 6.76 MB, far beyond any on-chip tier.
    const LstmLayerShape shape{650, 650, 20};

    const gpu::KernelDesc pk = lowering.persistentLayerKernel(
        shape, gpu::WeightResidency::Shared, shape.length,
        KernelBuildCtx{1});
    const double capacity =
        gpu::residencyCapacityBytes(cfg, gpu::WeightResidency::Shared);
    EXPECT_DOUBLE_EQ(pk.residencyPinnedBytes, capacity);
    EXPECT_GT(pk.dramResidencyReloadBytes, 0.0);
    // Reload is a subset of the weight stream; codes+scales+reload
    // must decompose dramWeightBytes without overlap.
    EXPECT_LT(pk.dramResidencyReloadBytes, pk.dramWeightBytes);
}

TEST(Residency, PersistentPresetMatchesTissuesPlusRegfile)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const Lowering lowering(cfg);
    const NetworkShape shape = NetworkShape::stacked(32, 64, 2, 12);

    const ExecutionPlan preset =
        ExecutionPlan::preset(PlanKind::Persistent, 2,
                              quant::QuantMode::Int8, {{6, 6}, {4, 4, 4}});

    ScheduleDecisions d;
    d.layers.resize(2);
    d.layers[0].tissueSizes = {6, 6};
    d.layers[1].tissueSizes = {4, 4, 4};
    for (LayerSchedule &ls : d.layers) {
        ls.quant = quant::QuantMode::Int8;
        ls.residency = WeightResidency::Regfile;
    }

    expectTraceEqual(lowering.lower(shape, preset, 1),
                     lowering.lower(shape, ExecutionPlan::fromDecisions(d),
                                    1));
}

} // namespace
} // namespace runtime
} // namespace mflstm
