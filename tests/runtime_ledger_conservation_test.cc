/**
 * @file
 * Conservation property tests for the traffic-attribution ledger on the
 * real lowering + simulator path (ISSUE 6 acceptance): for every Table
 * II application, every plan kind and every quantization mode, the
 * bytes the ledger attributes must equal the TraceResult DRAM total
 * BIT-EXACTLY (EXPECT_EQ on the doubles, no epsilon), and no per-sample
 * decomposition violation may be recorded. This is the automated
 * replacement for the manual byte audit that found PR 5's CRM
 * double-count.
 *
 * The sweep carries a backend axis (DESIGN.md §17): conservation must
 * hold bit-exactly on every hw registry backend, and backends whose
 * dot units fold the scale stream into the epilogue must attribute
 * exactly zero Dequant-cause bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hw/backend.hh"
#include "obs/ledger.hh"
#include "runtime/executor.hh"
#include "workloads/benchmarks.hh"

namespace {

using namespace mflstm;
using runtime::ExecutionPlan;
using runtime::PlanKind;

const gpu::GpuConfig kCfg = gpu::GpuConfig::tegraX1();

/**
 * A synthetic but structurally complete plan for @p kind: aligned
 * tissue schedules covering every cell, a DRS skip fraction in the
 * regime the paper reports (~35%), and the comparator's prune level.
 */
ExecutionPlan
planFor(PlanKind kind, const runtime::NetworkShape &shape,
        quant::QuantMode qm)
{
    std::vector<std::vector<std::size_t>> tissues;
    for (const runtime::LstmLayerShape &layer : shape.layers) {
        std::vector<std::size_t> &sizes = tissues.emplace_back();
        for (std::size_t left = layer.length; left > 0;) {
            const std::size_t t = std::min<std::size_t>(4, left);
            sizes.push_back(t);
            left -= t;
        }
    }
    return ExecutionPlan::preset(
        kind, shape.layers.size(), qm, tissues,
        std::vector<double>(shape.layers.size(), 0.35), 0.3);
}

void
expectConserved(const runtime::NetworkShape &shape,
                const ExecutionPlan &plan, std::size_t batch,
                const std::string &label,
                const gpu::GpuConfig &cfg = kCfg)
{
    obs::TrafficLedger ledger;
    runtime::NetworkExecutor ex(cfg);
    ex.setLedger(&ledger);

    const runtime::RunReport rep =
        ex.run(runtime::RunRequest::network(shape, plan, batch));

    // Bit-exact: the ledger accumulates sample totals in the same
    // left-to-right order the simulator sums TraceResult::dramBytes.
    EXPECT_EQ(ledger.attributedDramBytes(), rep.result.dramBytes)
        << label;
    EXPECT_EQ(ledger.samples(), rep.result.kernelCount) << label;

    const auto errors = ledger.verifyConservation(rep.result.dramBytes);
    EXPECT_TRUE(errors.empty()) << label << ": " << errors.front();

    // The tree never invents traffic: per-cause sums stay within total.
    double tree = 0.0;
    for (const auto &node : ledger.traffic()) {
        EXPECT_GE(node.second, 0.0) << label;
        tree += node.second;
    }
    EXPECT_NEAR(tree, rep.result.dramBytes,
                1e-9 * std::max(1.0, rep.result.dramBytes))
        << label;
}

TEST(LedgerConservation, AllTableIIAppsAllPlanKindsAllQuantModes)
{
    const PlanKind kinds[] = {
        PlanKind::Baseline,    PlanKind::InterCell,
        PlanKind::IntraCellSw, PlanKind::IntraCellHw,
        PlanKind::Combined,    PlanKind::ZeroPruning,
        PlanKind::Persistent,
    };
    const quant::QuantMode modes[] = {
        quant::QuantMode::Fp32,
        quant::QuantMode::Int8,
        quant::QuantMode::Int4,
    };

    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        const runtime::NetworkShape shape = spec.timingShape();
        for (PlanKind kind : kinds) {
            for (quant::QuantMode qm : modes) {
                const std::string label =
                    spec.name + "/" + runtime::toString(kind) + "/qm" +
                    std::to_string(static_cast<int>(qm));
                expectConserved(shape, planFor(kind, shape, qm), 1,
                                label);
            }
        }
    }
}

// Backend axis (DESIGN.md §17): the same bit-exact sweep on every
// registry backend — capability flags reroute attribution (scale bytes
// fold into the weight stream on dot-unit parts), they never create or
// destroy it.
TEST(LedgerConservation, HoldsOnEveryRegistryBackend)
{
    const PlanKind kinds[] = {
        PlanKind::Baseline,    PlanKind::InterCell,
        PlanKind::IntraCellSw, PlanKind::IntraCellHw,
        PlanKind::Combined,    PlanKind::ZeroPruning,
        PlanKind::Persistent,
    };
    const quant::QuantMode modes[] = {
        quant::QuantMode::Fp32,
        quant::QuantMode::Int8,
        quant::QuantMode::Int4,
    };

    for (const hw::Backend &b : hw::registry().entries()) {
        if (b.id == "tx1")
            continue;  // the anchor sweep above is exactly this
        for (const workloads::BenchmarkSpec &spec :
             workloads::tableII()) {
            const runtime::NetworkShape shape = spec.timingShape();
            for (PlanKind kind : kinds) {
                for (quant::QuantMode qm : modes) {
                    expectConserved(
                        shape, planFor(kind, shape, qm), 1,
                        b.id + "/" + spec.name + "/" +
                            runtime::toString(kind) + "/qm" +
                            std::to_string(static_cast<int>(qm)),
                        b.config);
                }
            }
        }
    }
}

// Dot-unit backends fold the per-row scales into the Sgemm epilogue:
// the Dequant cause must attribute exactly zero bytes there, while the
// Maxwell anchor keeps paying for the separate scale stream.
TEST(LedgerConservation, DotUnitBackendsReportZeroDequantBytes)
{
    const runtime::NetworkShape shape =
        workloads::tableII().front().timingShape();

    const auto dequantBytes = [&](const gpu::GpuConfig &cfg) {
        obs::TrafficLedger ledger;
        runtime::NetworkExecutor ex(cfg);
        ex.setLedger(&ledger);
        ex.run(runtime::RunRequest::network(
            shape,
            planFor(PlanKind::Combined, shape, quant::QuantMode::Int8),
            1));
        double bytes = 0.0;
        for (const auto &[key, value] : ledger.traffic())
            if (key.cause == obs::TrafficCause::Dequant)
                bytes += value;
        return bytes;
    };

    for (const hw::Backend &b : hw::registry().entries()) {
        SCOPED_TRACE(b.id);
        if (b.config.int8DotUnits)
            EXPECT_EQ(dequantBytes(b.config), 0.0);
        else
            EXPECT_GT(dequantBytes(b.config), 0.0);
    }
}

TEST(LedgerConservation, HoldsAcrossBatchDimension)
{
    const runtime::NetworkShape shape =
        runtime::NetworkShape::stacked(512, 512, 2, 20);
    for (std::size_t batch : {1u, 3u, 8u}) {
        for (PlanKind kind :
             {PlanKind::Baseline, PlanKind::Combined}) {
            expectConserved(
                shape, planFor(kind, shape, quant::QuantMode::Int8),
                batch,
                "batch" + std::to_string(batch) + "/" +
                    runtime::toString(kind));
        }
    }
}

// ISSUE 8: residency introduces a third weight sub-stream
// (residency-reload) that must decompose dramWeightBytes without
// overlapping codes or scales — sweep every tier × precision × batch.
TEST(LedgerConservation, HoldsAcrossResidencyTiers)
{
    const runtime::NetworkShape shape =
        runtime::NetworkShape::stacked(512, 512, 2, 20);
    const runtime::WeightResidency tiers[] = {
        runtime::WeightResidency::Shared,
        runtime::WeightResidency::Regfile,
    };
    const quant::QuantMode modes[] = {
        quant::QuantMode::Fp32,
        quant::QuantMode::Int8,
        quant::QuantMode::Int4,
    };
    for (runtime::WeightResidency tier : tiers) {
        for (quant::QuantMode qm : modes) {
            for (std::size_t batch : {1u, 4u}) {
                for (bool tissues : {false, true}) {
                    runtime::ScheduleDecisions d;
                    d.layers.resize(shape.layers.size());
                    for (std::size_t l = 0; l < d.layers.size(); ++l) {
                        d.layers[l].quant = qm;
                        d.layers[l].residency = tier;
                        if (tissues)
                            d.layers[l].tissueSizes = {4, 4, 4, 4, 4};
                    }
                    expectConserved(
                        shape, ExecutionPlan::fromDecisions(d), batch,
                        std::string(toString(tier)) +
                            (tissues ? "/tissues" : "/dense") + "/qm" +
                            std::to_string(static_cast<int>(qm)) + "/b" +
                            std::to_string(batch));
                }
            }
        }
    }
}

// The persistent preset on the real Table II shapes, every precision.
TEST(LedgerConservation, PersistentPresetConservesOnTableII)
{
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        const runtime::NetworkShape shape = spec.timingShape();
        for (quant::QuantMode qm :
             {quant::QuantMode::Fp32, quant::QuantMode::Int8}) {
            expectConserved(
                shape, planFor(PlanKind::Persistent, shape, qm), 4,
                spec.name + "/persistent/qm" +
                    std::to_string(static_cast<int>(qm)));
        }
    }
}

TEST(LedgerConservation, LedgerAccumulatesAcrossRunsAndResets)
{
    const runtime::NetworkShape shape =
        runtime::NetworkShape::stacked(256, 256, 1, 8);
    obs::TrafficLedger ledger;
    runtime::NetworkExecutor ex(kCfg);
    ex.setLedger(&ledger);

    const auto r1 = ex.run(runtime::RunRequest::network(
        shape, planFor(PlanKind::Baseline, shape, quant::QuantMode::Fp32),
        1));
    const auto r2 = ex.run(runtime::RunRequest::network(
        shape, planFor(PlanKind::Baseline, shape, quant::QuantMode::Fp32),
        1));
    // Two runs accumulate. Bit-exactness is an ordering guarantee, and
    // (r1 + r2) sums per-run first while the ledger keeps one running
    // sum across both — so across runs only ulp-level agreement holds.
    EXPECT_NEAR(ledger.attributedDramBytes(),
                r1.result.dramBytes + r2.result.dramBytes,
                1e-12 * ledger.attributedDramBytes());

    // A fresh ledger attached to the same executor accounts for the
    // next run alone, bit-exactly.
    obs::TrafficLedger fresh;
    ex.setLedger(&fresh);
    const auto r3 = ex.run(runtime::RunRequest::network(
        shape, planFor(PlanKind::Baseline, shape, quant::QuantMode::Fp32),
        1));
    EXPECT_TRUE(fresh.verifyConservation(r3.result.dramBytes).empty());
    EXPECT_NEAR(ledger.attributedDramBytes(),
                r1.result.dramBytes + r2.result.dramBytes,
                1e-12 * ledger.attributedDramBytes());
}

} // namespace
