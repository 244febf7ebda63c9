/**
 * @file
 * Golden-trace regression layer (ISSUE 8): for every Table II
 * application x plan kind x {fp32, int8}, the lowered KernelDesc stream
 * is reduced to a per-class signature (kernel counts plus every byte /
 * work field the timing and attribution models consume, printed at full
 * double precision) and diffed against a checked-in fixture under
 * tests/golden/. Any lowering change that moves a single byte in any
 * plan kind shows up as a one-line diff in the fixture it touched.
 *
 * Regenerating after an *intentional* lowering change:
 *
 *     MFLSTM_UPDATE_GOLDEN=1 ctest -R GoldenTrace
 *
 * then review the fixture diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/config.hh"
#include "quant/qformat.hh"
#include "runtime/lowering.hh"
#include "workloads/benchmarks.hh"

#ifndef MFLSTM_GOLDEN_DIR
#error "MFLSTM_GOLDEN_DIR must point at the fixture directory"
#endif

namespace {

using namespace mflstm;
using runtime::ExecutionPlan;
using runtime::PlanKind;

constexpr PlanKind kKinds[] = {
    PlanKind::Baseline,    PlanKind::InterCell,
    PlanKind::IntraCellSw, PlanKind::IntraCellHw,
    PlanKind::Combined,    PlanKind::ZeroPruning,
    PlanKind::Persistent,
};

constexpr quant::QuantMode kModes[] = {quant::QuantMode::Fp32,
                                       quant::QuantMode::Int8};

/**
 * Deterministic structurally-complete plan for @p kind (same synthetic
 * construction as the conservation sweep): aligned tissues of four
 * cells, the paper's ~35% DRS skip regime, 30% comparator pruning.
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

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Per-class aggregate of every model-visible KernelDesc field. */
struct ClassSignature
{
    std::size_t count = 0;
    double ctas = 0.0, threads = 0.0, flops = 0.0;
    double dramRead = 0.0, dramWrite = 0.0, l2 = 0.0, shared = 0.0;
    double weight = 0.0, scale = 0.0, crmMeta = 0.0, spill = 0.0;
    double reload = 0.0, pinned = 0.0, qelems = 0.0;
    double syncs = 0.0, disabled = 0.0;
};

std::string
traceSignature(const gpu::KernelTrace &trace)
{
    std::map<std::string, ClassSignature> by_class;
    for (const gpu::KernelDesc &k : trace) {
        ClassSignature &s = by_class[gpu::toString(k.klass)];
        ++s.count;
        s.ctas += k.ctas;
        s.threads += k.totalThreads();
        s.flops += k.flops;
        s.dramRead += k.dramReadBytes;
        s.dramWrite += k.dramWriteBytes;
        s.l2 += k.l2AccessBytes;
        s.shared += k.sharedBytes;
        s.weight += k.dramWeightBytes;
        s.scale += k.dramScaleBytes;
        s.crmMeta += k.dramCrmMetaBytes;
        s.spill += k.dramSpillBytes;
        s.reload += k.dramResidencyReloadBytes;
        s.pinned += k.residencyPinnedBytes;
        s.qelems += k.quantWeightElems;
        s.syncs += k.syncsPerCta;
        s.disabled += k.disabledThreads;
    }

    std::ostringstream os;
    os << "kernels " << trace.size() << "\n";
    for (const auto &entry : by_class) {
        const ClassSignature &s = entry.second;
        os << entry.first << " count " << s.count << " ctas "
           << fmt(s.ctas) << " threads " << fmt(s.threads) << " flops "
           << fmt(s.flops) << " dram_read " << fmt(s.dramRead)
           << " dram_write " << fmt(s.dramWrite) << " l2 " << fmt(s.l2)
           << " shared " << fmt(s.shared) << " weight " << fmt(s.weight)
           << " scale " << fmt(s.scale) << " crm " << fmt(s.crmMeta)
           << " spill " << fmt(s.spill) << " reload " << fmt(s.reload)
           << " pinned " << fmt(s.pinned) << " qelems " << fmt(s.qelems)
           << " syncs " << fmt(s.syncs) << " disabled "
           << fmt(s.disabled) << "\n";
    }
    return os.str();
}

/** The full fixture body for one plan kind: every app x precision. */
std::string
fixtureFor(PlanKind kind)
{
    // Named: Lowering keeps a reference to its GpuConfig.
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const runtime::Lowering lowering(cfg);
    std::ostringstream os;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        const runtime::NetworkShape shape = spec.timingShape();
        for (quant::QuantMode qm : kModes) {
            os << "[" << spec.name << "/" << runtime::toString(kind)
               << "/" << quant::toString(qm) << "]\n"
               << traceSignature(
                      lowering.lower(shape, planFor(kind, shape, qm), 1));
        }
    }
    return os.str();
}

std::string
fixturePath(PlanKind kind)
{
    return std::string(MFLSTM_GOLDEN_DIR) + "/trace_" +
           runtime::toString(kind) + ".txt";
}

class GoldenTrace : public ::testing::TestWithParam<PlanKind>
{
};

TEST_P(GoldenTrace, LoweredSignatureMatchesFixture)
{
    const PlanKind kind = GetParam();
    const std::string got = fixtureFor(kind);
    const std::string path = fixturePath(kind);

    if (std::getenv("MFLSTM_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << " — run with MFLSTM_UPDATE_GOLDEN=1 to create it";
    std::stringstream want;
    want << in.rdbuf();

    // Line-by-line so a failure names the first divergent signature
    // instead of dumping two multi-kilobyte blobs.
    std::istringstream gs(got), ws(want.str());
    std::string gline, wline;
    std::size_t line = 0;
    while (std::getline(ws, wline)) {
        ++line;
        ASSERT_TRUE(std::getline(gs, gline))
            << path << ":" << line << ": fixture has more lines than "
            << "the lowered signature (first missing: " << wline << ")";
        EXPECT_EQ(gline, wline) << path << ":" << line;
    }
    EXPECT_FALSE(std::getline(gs, gline))
        << path << ": lowered signature has extra lines (first: "
        << gline << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllPlanKinds, GoldenTrace, ::testing::ValuesIn(kKinds),
    [](const ::testing::TestParamInfo<PlanKind> &info) {
        std::string name = runtime::toString(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
