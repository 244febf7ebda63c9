/**
 * @file
 * google-benchmark microbenchmarks of the CPU-side tensor kernels the
 * accuracy substrate runs on: GEMV/GEMM (plain, transposed, panel-packed,
 * masked), the LSTM cell step (dense and with DRS) and the classification
 * head, plus the host cost of one lower-and-simulate timing run. These
 * measure the reproduction's own code (wall clock), not the simulated
 * GPU.
 */

#include <benchmark/benchmark.h>

#include "gpu/simulator.hh"
#include "harness.hh"
#include "nn/lstm.hh"
#include "nn/model.hh"
#include "runtime/lowering.hh"
#include "tensor/ops.hh"
#include "tensor/panel.hh"
#include "tensor/rng.hh"
#include "workloads/benchmarks.hh"

namespace {

using namespace mflstm;
using tensor::Matrix;
using tensor::Vector;

Matrix
randomMatrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    Matrix m(r, c);
    rng.fillUniform(m, -1.0f, 1.0f);
    return m;
}

Vector
randomVector(std::size_t n, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = rng.uniform(-1.0f, 1.0f);
    return v;
}

void
BM_Gemv(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Matrix a = randomMatrix(4 * n, n, 1);
    const Vector x = randomVector(n, 2);
    Vector y;
    for (auto _ : state) {
        tensor::gemv(a, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            4 * n * n);
}
// 40-56: the hidden sizes of the accuracy models (4H x H recurrent GEMV).
BENCHMARK(BM_Gemv)->Arg(40)->Arg(48)->Arg(56)->Arg(128)->Arg(256)->Arg(512);

void
BM_GemvPanel(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::PanelMatrix a(randomMatrix(4 * n, n, 1));
    const Vector x = randomVector(n, 2);
    Vector y;
    for (auto _ : state) {
        tensor::gemv(a, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            4 * n * n);
}
BENCHMARK(BM_GemvPanel)->Arg(40)->Arg(48)->Arg(56)->Arg(128)->Arg(256)
    ->Arg(512);

void
BM_GemvMasked(benchmark::State &state)
{
    // The fused U_{f,i,c} of a DRS cell (3H x H) with every other hidden
    // element skipped: 50% of rows, and no panel skipped whole.
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::PanelMatrix a(randomMatrix(3 * n, n, 3));
    const Vector x = randomVector(n, 4);
    std::vector<std::uint8_t> skip(3 * n, 0);
    for (std::size_t r = 0; r < 3 * n; r += 2)
        skip[r] = 1;
    Vector y;
    for (auto _ : state) {
        tensor::gemvMasked(a, x, skip, y);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_GemvMasked)->Arg(40)->Arg(48)->Arg(56);

void
BM_GemvT(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Matrix a = randomMatrix(n, n, 5);
    const Vector x = randomVector(n, 6);
    Vector y;
    for (auto _ : state) {
        tensor::gemvT(a, x, y);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_GemvT)->Arg(256)->Arg(512);

void
BM_Gemm(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Matrix a = randomMatrix(n, n, 7);
    const Matrix b = randomMatrix(n, n, 8);
    Matrix c;
    for (auto _ : state) {
        tensor::gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

/**
 * One cell step (nn::lstmCellForward) from the same state each
 * iteration, with the state and the step buffers reused as the layer
 * loop reuses them: dense, and with DRS at alpha_intra.
 */
void
BM_LstmCell(benchmark::State &state, double alpha_intra)
{
    const auto h = static_cast<std::size_t>(state.range(0));
    nn::LstmLayerParams p(h, h);
    tensor::Rng rng(9);
    p.init(rng);
    const Vector x_proj = randomVector(4 * h, 10);
    const nn::PackedRecurrent packed(p);
    const nn::LstmState prev(h);
    nn::LstmState cell(h);
    nn::LstmStepScratch scratch;
    for (auto _ : state) {
        cell = prev;
        nn::lstmCellForward(packed, x_proj.span(), cell, scratch,
                            nn::SigmoidKind::Logistic, {alpha_intra});
        benchmark::DoNotOptimize(cell.h.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK_CAPTURE(BM_LstmCell, dense, 0.0)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(BM_LstmCell, drs_0_4, 0.4)->Arg(64)->Arg(128)->Arg(256);

/**
 * The classification head (classes x hidden), run once per sequence on
 * the last h_t: row-major nn::linearForward against packing the head and
 * running the panel GEMV, as the per-step LM head does. Args are
 * (classes, hidden); the Table II heads are 2x40 (MR) and 3x48 (SNLI).
 */
void
BM_LinearHead(benchmark::State &state, bool packed)
{
    const auto out = static_cast<std::size_t>(state.range(0));
    const auto in = static_cast<std::size_t>(state.range(1));
    nn::LinearParams head(in, out);
    head.w = randomMatrix(out, in, 5);
    head.b = randomVector(out, 6);
    const Vector x = randomVector(in, 7);
    for (auto _ : state) {
        Vector y;
        if (packed)
            tensor::gemv(tensor::PanelMatrix(head.w), x, head.b, y);
        else
            y = nn::linearForward(head, x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK_CAPTURE(BM_LinearHead, row_major, false)
    ->Args({2, 40})->Args({3, 48});
BENCHMARK_CAPTURE(BM_LinearHead, packed, true)
    ->Args({2, 40})->Args({3, 48});

/**
 * Host cost of one timing run, the unit a cold schedule search repeats
 * thousands of times: lower a Table II network under a Combined plan
 * and simulate its trace on tx1. The plans have the planner's shapes:
 * PTB fp32 runs layer 0 per cell and layers 1-2 in tissues of four
 * (1,005 launches); MR int8 runs per cell (67 launches).
 * time_per_launch is the wall time per kernel launch.
 */
void
BM_LowerAndSimulate(benchmark::State &state, const char *app,
                    quant::QuantMode qm)
{
    const runtime::NetworkShape shape =
        workloads::benchmarkByName(app).timingShape();
    const bool ptb = std::string(app) == "PTB";
    std::vector<std::vector<std::size_t>> tissues;
    for (std::size_t l = 0; l < shape.layers.size(); ++l) {
        const std::size_t size = ptb && l > 0 ? 4 : 1;
        tissues.emplace_back(shape.layers[l].length / size, size);
    }
    const runtime::ExecutionPlan plan = runtime::ExecutionPlan::preset(
        runtime::PlanKind::Combined, shape.layers.size(), qm, tissues,
        std::vector<double>(shape.layers.size(), 0.35));

    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    const runtime::Lowering lowering(cfg);
    double launches = 0.0;
    for (auto _ : state) {
        const gpu::KernelTrace trace = lowering.lower(shape, plan);
        gpu::Simulator sim(cfg, plan.usesCrmHardware());
        const gpu::TraceResult r = sim.runTrace(trace);
        benchmark::DoNotOptimize(r.timeUs);
        launches += static_cast<double>(trace.size());
    }
    state.counters["time_per_launch"] = benchmark::Counter(
        launches, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_LowerAndSimulate, PTB_combined_fp32, "PTB",
                  quant::QuantMode::Fp32);
BENCHMARK_CAPTURE(BM_LowerAndSimulate, MR_combined_int8, "MR",
                  quant::QuantMode::Int8);

/**
 * Console reporter that also captures every per-iteration run into the
 * shared BenchReport, so this binary emits BENCH_micro_kernels.json
 * under the same schema as the figure benches. Wall-clock numbers are
 * machine-dependent — the report is for archival/trend plots, not for
 * the CI regression gate (which diffs the simulated benches only).
 */
class RecordingReporter : public benchmark::ConsoleReporter
{
  public:
    explicit RecordingReporter(bench::BenchReport &rep) : rep_(rep) {}

    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred)
                continue;
            rep_.metric(r.benchmark_name() + ".real_time_ns",
                        r.GetAdjustedRealTime());
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    bench::BenchReport &rep_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    bench::BenchReport rep("micro_kernels");
    RecordingReporter reporter(rep);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    rep.write();
    return 0;
}
