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
 * A second fixture, tests/golden/trace_digests.txt, pins the order and
 * provenance the sums cannot see: one line per app x plan kind x
 * {fp32, int8} x batch {1, 3} with the kernel count and an FNV-1a
 * digest over every kernel in trace order (name, provenance stamps,
 * enums, flags and every numeric field). A reordered kernel, a wrong
 * layer/timestep/tissue stamp or a mis-tagged batched name changes it.
 *
 * A third fixture, tests/golden/lowering_path_digests.txt, carries the
 * same digest for the lowering paths the first two never reach: int4
 * codes, the dp4a backend (whose int8 dot units fold the scale stream
 * into the accumulator epilogue) and the shared-memory residency tier,
 * dense and over tissue waves.
 *
 * Regenerating after an *intentional* lowering change:
 *
 *     MFLSTM_UPDATE_GOLDEN=1 ctest -R GoldenTrace
 *
 * then review the fixture diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/config.hh"
#include "hw/backend.hh"
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

/**
 * Diff @p got against the fixture at @p path line by line, so a failure
 * names the first divergent line instead of dumping two multi-kilobyte
 * blobs. With MFLSTM_UPDATE_GOLDEN set it rewrites the fixture instead.
 */
void
expectMatchesFixture(const std::string &got, const std::string &path)
{
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

    std::istringstream gs(got), ws(want.str());
    std::string gline, wline;
    std::size_t line = 0;
    while (std::getline(ws, wline)) {
        ++line;
        ASSERT_TRUE(std::getline(gs, gline))
            << path << ":" << line << ": fixture has more lines than "
            << "the lowered output (first missing: " << wline << ")";
        EXPECT_EQ(gline, wline) << path << ":" << line;
    }
    EXPECT_FALSE(std::getline(gs, gline))
        << path << ": lowered output has extra lines (first: " << gline
        << ")";
}

class GoldenTrace : public ::testing::TestWithParam<PlanKind>
{
};

TEST_P(GoldenTrace, LoweredSignatureMatchesFixture)
{
    const PlanKind kind = GetParam();
    expectMatchesFixture(fixtureFor(kind), fixturePath(kind));
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

/** 64-bit FNV-1a, fed little-endian so the digest is host-independent. */
class Fnv1a
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v)
    {
        unsigned char le[8];
        for (int i = 0; i < 8; ++i)
            le[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(le, sizeof le);
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Kernel count plus a digest over every field of every kernel. */
std::string
traceDigest(const gpu::KernelTrace &trace)
{
    Fnv1a h;
    for (const gpu::KernelDesc &k : trace) {
        h.str(k.name);
        h.u64(static_cast<std::uint64_t>(k.klass));
        h.u64(k.ctas);
        h.u64(k.threadsPerCta);
        for (double v :
             {k.flops, k.dramReadBytes, k.dramWriteBytes, k.l2AccessBytes,
              k.sharedBytes, k.dramWeightBytes, k.quantWeightElems,
              k.dramScaleBytes, k.dramCrmMetaBytes, k.dramSpillBytes,
              k.dramResidencyReloadBytes, k.residencyPinnedBytes,
              k.divergenceFactor, k.coalescingFactor})
            h.f64(v);
        h.u64(static_cast<std::uint64_t>(k.weightStream));
        h.u64(static_cast<std::uint64_t>(k.residency));
        h.u64(k.syncsPerCta);
        h.i64(k.layer);
        h.i64(k.timestep);
        h.i64(k.tissue);
        h.u64(k.hasRowSkipArg ? 1 : 0);
        h.u64(k.disabledThreads);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "kernels %zu fnv1a %016llx",
                  trace.size(), static_cast<unsigned long long>(h.value()));
    return buf;
}

/** Digest fixture body: every app x plan kind x precision x batch. */
std::string
digestFixture()
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const runtime::Lowering lowering(cfg);
    std::ostringstream os;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        const runtime::NetworkShape shape = spec.timingShape();
        for (PlanKind kind : kKinds)
            for (quant::QuantMode qm : kModes)
                for (std::size_t batch : {1u, 3u})
                    os << spec.name << "/" << runtime::toString(kind)
                       << "/" << quant::toString(qm) << "/b" << batch
                       << " "
                       << traceDigest(lowering.lower(
                              shape, planFor(kind, shape, qm), batch))
                       << "\n";
    }
    return os.str();
}

TEST(GoldenTraceDigest, EveryKernelMatchesFixture)
{
    expectMatchesFixture(digestFixture(), std::string(MFLSTM_GOLDEN_DIR) +
                                              "/trace_digests.txt");
}

/** The Persistent preset's tissue waves with U pinned in shared memory
 *  instead of the register file, or the dense recurrence when
 *  @p tissues is false. */
ExecutionPlan
sharedResidentPlan(const runtime::NetworkShape &shape, quant::QuantMode qm,
                   bool tissues)
{
    runtime::ScheduleDecisions d =
        planFor(PlanKind::Persistent, shape, qm).decisions;
    for (runtime::LayerSchedule &ls : d.layers) {
        ls.residency = gpu::WeightResidency::Shared;
        if (!tissues)
            ls.tissueSizes.clear();
    }
    return ExecutionPlan::fromDecisions(std::move(d));
}

/**
 * Digest fixture body for the paths trace_digests.txt leaves out:
 * tx1 and dp4a x {fp32, int8, int4} x every plan kind plus the two
 * shared-residency plans x batch {1, 3}, minus the lines
 * trace_digests.txt already holds (tx1, fp32/int8, the plan kinds).
 */
std::string
pathDigestFixture()
{
    constexpr quant::QuantMode modes[] = {quant::QuantMode::Fp32,
                                          quant::QuantMode::Int8,
                                          quant::QuantMode::Int4};
    std::ostringstream os;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        const runtime::NetworkShape shape = spec.timingShape();
        for (const std::string id : {"tx1", "dp4a"}) {
            const runtime::Lowering lowering(hw::registry().get(id).config);
            for (quant::QuantMode qm : modes) {
                const bool covered =
                    id == "tx1" && qm != quant::QuantMode::Int4;
                std::vector<std::pair<std::string, ExecutionPlan>> plans;
                if (!covered)
                    for (PlanKind kind : kKinds)
                        plans.emplace_back(runtime::toString(kind),
                                           planFor(kind, shape, qm));
                plans.emplace_back("persistent-shared",
                                   sharedResidentPlan(shape, qm, true));
                plans.emplace_back("resident-shared",
                                   sharedResidentPlan(shape, qm, false));
                for (const auto &[label, plan] : plans)
                    for (std::size_t batch : {1u, 3u})
                        os << spec.name << "/" << id << "/"
                           << quant::toString(qm) << "/" << label << "/b"
                           << batch << " "
                           << traceDigest(
                                  lowering.lower(shape, plan, batch))
                           << "\n";
            }
        }
    }
    return os.str();
}

TEST(GoldenTraceDigest, UncoveredPathsMatchFixture)
{
    expectMatchesFixture(pathDigestFixture(),
                         std::string(MFLSTM_GOLDEN_DIR) +
                             "/lowering_path_digests.txt");
}

} // namespace
