/**
 * @file
 * Persistent-residency acceptance gate (DESIGN.md §15): for every Table
 * II application, lower the same tissue schedule twice — once streaming
 * (the inter-cell preset) and once with register-file residency (the
 * persistent preset) — and require the persistent plan to *strictly*
 * reduce simulated per-sequence weight DRAM bytes at int8 (and fp32).
 * This is the headline claim of the residency model: on-chip pinning
 * charges the resident working set once per sequence instead of once
 * per tissue wave, so the win must hold on every app, not in aggregate.
 * Exit 1 on any violation so CI fails when a cost-model change erodes
 * the residency advantage.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"
#include "runtime/executor.hh"

namespace {

using namespace mflstm;
using namespace mflstm::bench;

/**
 * The synthetic preset construction the conservation sweep uses:
 * aligned tissues of four cells per layer. The persistent preset
 * takes the same tissue sizes, so the two plans differ ONLY in the
 * residency axis.
 */
runtime::ExecutionPlan
tissuePlan(runtime::PlanKind kind, const runtime::NetworkShape &shape,
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
    return runtime::ExecutionPlan::preset(kind, shape.layers.size(), qm,
                                          tissues);
}

struct GateRow
{
    std::string app;
    std::string mode;
    double tissuesBytes = 0.0;     ///< per-sequence weight DRAM bytes
    double persistentBytes = 0.0;  ///< same, with regfile residency
    double ratio = 0.0;            ///< persistent / tissues, < 1 required
    bool ok = false;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Positional args select a subset of the Table II applications.
    std::vector<workloads::BenchmarkSpec> specs;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        bool wanted = argc < 2;
        for (int i = 1; i < argc && !wanted; ++i)
            wanted = spec.name == argv[i] || spec.abbrev == argv[i];
        if (wanted)
            specs.push_back(spec);
    }
    if (specs.empty()) {
        std::fprintf(stderr,
                     "no matching application; valid names are:\n");
        for (const workloads::BenchmarkSpec &spec : workloads::tableII())
            std::fprintf(stderr, "  %s (%s)\n", spec.name.c_str(),
                         spec.abbrev.c_str());
        return 2;
    }

    const quant::QuantMode modes[] = {quant::QuantMode::Fp32,
                                      quant::QuantMode::Int8};
    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    runtime::NetworkExecutor exec(cfg);

    std::printf("Persistent-residency gate: regfile persistence vs the "
                "same tissue schedule, streamed\n");
    rule('=');
    std::printf("%-6s %-5s | %14s %14s | %9s | %s\n", "App", "quant",
                "tissues B/seq", "persist B/seq", "ratio", "ok?");
    rule();

    BenchReport rep("persistent_gate");
    std::vector<GateRow> rows;

    for (const workloads::BenchmarkSpec &spec : specs) {
        const runtime::NetworkShape shape = spec.timingShape();
        for (quant::QuantMode qm : modes) {
            const runtime::RunReport tissues =
                exec.run(runtime::RunRequest::network(
                    shape,
                    tissuePlan(runtime::PlanKind::InterCell, shape, qm),
                    1));
            const runtime::RunReport persistent =
                exec.run(runtime::RunRequest::network(
                    shape,
                    tissuePlan(runtime::PlanKind::Persistent, shape,
                               qm),
                    1));

            GateRow row;
            row.app = spec.name;
            row.mode = quant::toString(qm);
            row.tissuesBytes = tissues.weightDramBytesPerSequence();
            row.persistentBytes =
                persistent.weightDramBytesPerSequence();
            row.ratio = row.tissuesBytes > 0.0
                            ? row.persistentBytes / row.tissuesBytes
                            : 1.0;
            // Strict win: per-sequence weight bytes must go DOWN.
            row.ok = row.persistentBytes < row.tissuesBytes;
            rows.push_back(row);

            std::printf("%-6s %-5s | %14.0f %14.0f | %8.4fx | %s\n",
                        row.app.c_str(), row.mode.c_str(),
                        row.tissuesBytes, row.persistentBytes,
                        row.ratio, row.ok ? "yes" : "NO");

            const std::string key = spec.name + "." + row.mode;
            rep.metric(key + ".tissues.weight_bytes_per_seq",
                       row.tissuesBytes);
            rep.metric(key + ".persistent.weight_bytes_per_seq",
                       row.persistentBytes);
            rep.metric(key + ".persistent_over_tissues.bytes_ratio",
                       row.ratio);
            rep.metric(key + ".strict_win", row.ok ? 1.0 : 0.0);
        }
    }
    rule();

    bool all_ok = true;
    for (quant::QuantMode qm : modes) {
        const std::string mode = quant::toString(qm);
        std::vector<double> ratios;
        for (const GateRow &row : rows) {
            if (row.mode != mode)
                continue;
            all_ok = all_ok && row.ok;
            ratios.push_back(row.ratio);
        }
        const double g = geomean(ratios);
        std::printf("%-5s geomean: persistent weight bytes %.4fx of "
                    "streamed tissues\n",
                    mode.c_str(), g);
        rep.metric("geomean." + mode +
                       ".persistent_over_tissues.bytes_ratio",
                   g);
    }
    std::printf("gate: %s\n",
                all_ok ? "PASS (persistent strictly below streamed "
                         "tissues on every app, both precisions)"
                       : "FAIL");
    rep.metric("gate.pass", all_ok ? 1.0 : 0.0);
    rep.write();
    return all_ok ? 0 : 1;
}
