/**
 * @file
 * mflstm_sysbench: the system benchmark's entry point. One process runs one
 * workload and prints, as the last line of stdout, one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
 *
 * With --trace 0 the metrics are the end-to-end metrics, measured with
 * tracing off; with --trace 1 they are the per-layer metrics of a traced
 * run. Every metric is also printed to stderr by name with its unit.
 * Exit status: 0 when every correctness check passed, 1 when a check or
 * an operation failed, 2 on a usage or set-up error.
 *
 *   mflstm_sysbench --prepare [--cache DIR]
 *   mflstm_sysbench --workload W --seed N --seconds S --trace 0|1
 *                   [--smoke] [--cache DIR] [--out DIR]
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "sysbench/common.hh"
#include "sysbench/workloads.hh"

namespace {

using namespace mflstm::sysbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
    /// reported as 0 by workloads that never exercise its layer
    bool exclusive = false;
};

// Must match BENCHMARK.json (run.py checks every result against it).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"sim_speedup", "x"},
    {"sim_energy_saving_pct", "%"},
};

const MetricSpec kPerLayer[] = {
    {"client.latency_p50_ms", "ms"},
    {"client.latency_p90_ms", "ms"},
    {"io.model_load_ms.p50", "ms"},
    {"core.calibrate_ms.p50", "ms"},
    {"core.forward_us_per_seq", "us"},
    {"runtime.run_ms.p50", "ms"},
    {"runtime.lower_ms.p50", "ms"},
    {"gpu.simulate_ms.p50", "ms"},
    {"gpu.simulate_observed_ms.p50", "ms"},
    {"gpu.host_us_per_kernel", "us"},
    {"runtime.runs", "count"},
    {"runtime.kernels_per_run.mean", "count"},
    {"gpu.sim.sgemv_share", "frac"},
    {"gpu.sim.dram_mb_per_run", "MB"},
    {"serve.self_pct", "%"},
    {"core.self_pct", "%"},
    {"runtime.self_pct", "%"},
    {"gpu.self_pct", "%"},
    {"sched.self_pct", "%"},
    {"io.self_pct", "%"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
    {"serve.timing_repeat_frac.light", "frac", true},
    {"serve.timing_repeat_frac.heavy", "frac", true},
    {"serve.batch_size.mean.light", "count", true},
    {"serve.batch_size.mean.heavy", "count", true},
    {"serve.batch_size.mean.burst", "count", true},
    {"serve.queue_high_water.heavy", "count", true},
    {"serve.queue_high_water.burst", "count", true},
    {"serve.within_limit_frac.heavy", "frac", true},
    {"serve.queue_pct.light", "%", true},
    {"serve.queue_pct.heavy", "%", true},
    {"serve.batch_wait_pct.light", "%", true},
    {"serve.batch_wait_pct.heavy", "%", true},
    {"serve.exec_pct.light", "%", true},
    {"serve.exec_pct.heavy", "%", true},
    {"serve.gen_late_pct.light", "%", true},
    {"serve.gen_late_pct.heavy", "%", true},
    {"serve.samples", "count", true},
    {"serve.not_ok", "count", true},
    {"sched.tunes", "count", true},
    {"sched.candidates.mean", "count", true},
    {"io.cache_hit_frac", "frac", true},
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "mflstm_sysbench: %s\n"
                 "usage: mflstm_sysbench --prepare [--cache DIR]\n"
                 "       mflstm_sysbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--cache DIR] [--out DIR]\n"
                 "workloads: serve-mr serve-ptb sweep-table2 tune-zoo\n",
                 msg);
    return 2;
}

/** Check the report carries exactly the listed metrics; zero-fill the
 *  exclusive ones the workload does not exercise. */
template <std::size_t N>
bool
completeMetrics(Report &rep, const MetricSpec (&specs)[N])
{
    std::set<std::string> listed, seen;
    for (const MetricSpec &m : specs)
        listed.insert(m.name);
    for (const Report::Metric &m : rep.metrics()) {
        if (!listed.count(m.name) || !seen.insert(m.name).second) {
            std::fprintf(stderr, "internal: unlisted or repeated metric %s\n",
                         m.name.c_str());
            return false;
        }
    }
    for (const MetricSpec &spec : specs) {
        const Report::Metric *found = nullptr;
        for (const Report::Metric &m : rep.metrics())
            if (m.name == spec.name)
                found = &m;
        if (!found && spec.exclusive) {
            rep.metric(spec.name, 0.0, spec.unit);
            continue;
        }
        if (!found || found->unit != spec.unit ||
            !std::isfinite(found->value)) {
            std::fprintf(stderr, "internal: metric %s missing, non-finite "
                         "or in the wrong unit\n", spec.name);
            return false;
        }
    }
    return true;
}

void
printResult(const Report &rep, bool correct)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted()),
                static_cast<unsigned long long>(rep.failed()));
    bool first = true;
    for (const Report::Metric &m : rep.metrics()) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool prepare = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        try {
            if (a == "--prepare") {
                prepare = true;
            } else if (a == "--smoke") {
                opts.smoke = true;
            } else if (a == "--flip-logit") {
                opts.flipLogit = true;
            } else if (a == "--workload" && has_value) {
                opts.workload = argv[++i];
            } else if (a == "--seed" && has_value) {
                opts.seed = std::stoull(argv[++i]);
                have_seed = true;
            } else if (a == "--seconds" && has_value) {
                opts.seconds = std::stod(argv[++i]);
                have_seconds = true;
            } else if (a == "--trace" && has_value) {
                const std::string v = argv[++i];
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                opts.trace = v == "1";
                have_trace = true;
            } else if (a == "--cache" && has_value) {
                opts.cacheDir = argv[++i];
            } else if (a == "--out" && has_value) {
                opts.outDir = argv[++i];
            } else {
                return usage(("unknown or incomplete argument " + a).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }

    try {
        if (prepare) {
            prepareModels(opts.cacheDir);
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mflstm_sysbench: prepare failed: %s\n",
                     e.what());
        return 2;
    }

    if (opts.smoke) {
        opts.seconds = 3.0;
        have_seconds = true;
    }
    if (opts.workload.empty() || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are required");
    if (!(opts.seconds >= 1.0 && opts.seconds <= 600.0))
        return usage("--seconds must be in [1, 600]");

    Report rep;
    Tracer tracer(opts.trace);
    try {
        if (opts.workload == "serve-mr")
            runServe(opts, kServeMr, rep, tracer);
        else if (opts.workload == "serve-ptb")
            runServe(opts, kServePtb, rep, tracer);
        else if (opts.workload == "sweep-table2")
            runSweep(opts, rep, tracer);
        else if (opts.workload == "tune-zoo")
            runTune(opts, rep, tracer);
        else
            return usage(("unknown workload " + opts.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mflstm_sysbench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 2;
    }

    const bool complete = opts.trace ? completeMetrics(rep, kPerLayer)
                                     : completeMetrics(rep, kEndToEnd);
    if (!complete)
        return 2;

    if (opts.trace) {
        std::filesystem::create_directories(opts.outDir);
        const std::string path = opts.outDir + "/trace-" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".json";
        std::ofstream os(path);
        tracer.writeChromeTrace(os);
        if (!os) {
            std::fprintf(stderr, "mflstm_sysbench: cannot write %s\n",
                         path.c_str());
            return 2;
        }
        std::fprintf(stderr, "trace: %zu spans written to %s\n",
                     tracer.spans().size(), path.c_str());
    }

    std::fprintf(stderr, "%s seed %llu (%s):\n", opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed),
                 opts.trace ? "per-layer, traced" : "end-to-end");
    for (const Report::Metric &m : rep.metrics())
        std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    const bool correct = rep.failed() == 0;
    std::fprintf(stderr, "  attempted %llu, failed %llu: %s\n",
                 static_cast<unsigned long long>(rep.attempted()),
                 static_cast<unsigned long long>(rep.failed()),
                 correct ? "correct" : "INCORRECT");
    printResult(rep, correct);
    return correct ? 0 : 1;
}
