#include "runtime/lowering.hh"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gpu/cache.hh"
#include "gpu/sm.hh"

namespace mflstm {
namespace runtime {

namespace {

constexpr double kFloat = 4.0;  // sizeof(float)

/** Threads per CTA used by all dense kernels in this lowering. */
constexpr unsigned kCta = 128;

unsigned
ctasFor(double threads)
{
    return static_cast<unsigned>(
        std::max(1.0, std::ceil(threads / kCta)));
}

/** Batched kernels carry the batch in their trace name. */
void
tagBatch(std::string &name, std::size_t batch)
{
    if (batch > 1)
        name += " x" + std::to_string(batch);
}

double
checkedBatch(std::size_t batch)
{
    if (batch == 0)
        throw std::invalid_argument("Lowering: batch must be >= 1");
    return static_cast<double>(batch);
}

/**
 * DRAM footprint of a quantized weight block of @p elems elements with
 * @p rows per-row scales: the integer codes plus the fp32 scale stream
 * (which also has to cross the bus once per sweep).
 */
double
weightFootprintBytes(double elems, double rows, quant::QuantMode qm)
{
    const double scale_bytes =
        qm == quant::QuantMode::Fp32 ? 0.0 : rows * kFloat;
    return elems * quant::bytesPerWeight(qm) + scale_bytes;
}

/**
 * Scale-stream fraction of a quantized weight block's DRAM footprint.
 * Streaming compression and row skipping shrink codes and scales
 * together, so the share survives any proportional traffic reduction —
 * which is exactly how the builders apply it to their (possibly
 * compressed) dramWeightBytes for the attribution ledger. On backends
 * with int8 dot-product units (@p dot_units) the per-row scales fold
 * into the accumulator epilogue instead of streaming beside the codes,
 * so no bytes carry the dequant cause: the whole footprint stays
 * attributed to the weight stream and the ledger totals are unchanged.
 */
double
scaleShare(double elems, double rows, quant::QuantMode qm, bool dot_units)
{
    if (qm == quant::QuantMode::Fp32 || dot_units)
        return 0.0;
    const double scale_bytes = rows * kFloat;
    return scale_bytes /
           (elems * quant::bytesPerWeight(qm) + scale_bytes);
}

/** Quantized kernels tag the precision in their trace name. */
void
tagQuant(std::string &name, quant::QuantMode qm)
{
    if (qm != quant::QuantMode::Fp32)
        name += std::string(" [") + quant::toString(qm) + "]";
}

} // anonymous namespace

double
sgemmSharedBytesPerMac(std::size_t hidden_size, std::size_t cols)
{
    if (cols >= 32) {
        // Wide GEMM: 8x8 register blocking amortises shared reads.
        return 1.2;
    }
    // Narrow (per-tissue) GEMM: no column blocking; every MAC pulls its
    // weight operand from shared memory and H_t columns are re-read per
    // row tile. Small hidden sizes double-buffer inside the 64 KB shared
    // memory and avoid some redundant re-reads. Calibrated (jointly with
    // the L2 residency model, which trims small matrices' DRAM time) so
    // the maximum tissue size (Fig. 9) lands at 6 for H < 300 and 5
    // otherwise.
    return hidden_size < 300 ? 5.2 : 6.8;
}

double
sgemvSharedBytesPerMac()
{
    return 4.0;  // only the input vector is staged on chip
}

double
swSkipCoalescedSaving()
{
    // One thread per row: a surviving warp still pulls the transactions
    // covering its skipped neighbours, so only ~15% of a skipped row's
    // bytes leave the bus in the software scheme.
    return 0.15;
}

double
Lowering::layerWeightTraffic(double footprint_bytes, double sweeps) const
{
    return gpu::streamingReuseDramBytes(footprint_bytes, sweeps,
                                        static_cast<double>(cfg_.l2Bytes));
}

gpu::KernelDesc
Lowering::inputSgemm(const LstmLayerShape &shape,
                     const KernelBuildCtx &ctx) const
{
    const quant::QuantMode qm = ctx.quant;
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double e = static_cast<double>(shape.inputSize);
    const double n = static_cast<double>(shape.length);

    const double macs = 4.0 * h * e * n * b;
    const double w_bytes = weightFootprintBytes(4.0 * h * e, 4.0 * h, qm);
    const double in_bytes = n * e * kFloat * b;
    const double out_bytes = n * 4.0 * h * kFloat * b;

    gpu::KernelDesc k;
    k.name = "Sgemm(W_fico, x)";
    k.klass = gpu::KernelClass::Sgemm;
    k.flops = 2.0 * macs;
    k.dramReadBytes = w_bytes + in_bytes;
    k.dramWeightBytes = w_bytes;
    k.weightStream = gpu::WeightStream::W;
    k.dramScaleBytes = w_bytes * scaleShare(4.0 * h * e, 4.0 * h, qm, cfg_.int8DotUnits);
    k.dramWriteBytes = out_bytes;
    k.l2AccessBytes = w_bytes + in_bytes + out_bytes;
    k.sharedBytes =
        macs * sgemmSharedBytesPerMac(shape.hiddenSize,
                                      shape.length * ctx.batch);
    if (qm != quant::QuantMode::Fp32)
        k.quantWeightElems = 4.0 * h * e;
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(4.0 * h * n * b);
    k.syncsPerCta = 4;
    tagQuant(k.name, qm);
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::cellSgemv(const LstmLayerShape &shape,
                    double dram_bytes_weights,
                    const KernelBuildCtx &ctx) const
{
    const quant::QuantMode qm = ctx.quant;
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double macs = 4.0 * h * h * b;
    const double vec_bytes = 5.0 * h * kFloat * b;  // h in, 4H out

    gpu::KernelDesc k;
    k.name = "Sgemv(U_fico, h)";
    k.klass = gpu::KernelClass::Sgemv;
    k.flops = 2.0 * macs;
    // The weight stream is fetched once and feeds every batch column.
    k.dramReadBytes = dram_bytes_weights + h * kFloat * b;
    k.dramWeightBytes = dram_bytes_weights;
    k.weightStream = gpu::WeightStream::U;
    k.dramScaleBytes =
        dram_bytes_weights * scaleShare(4.0 * h * h, 4.0 * h, qm, cfg_.int8DotUnits);
    k.dramWriteBytes = 4.0 * h * kFloat * b;
    k.l2AccessBytes =
        weightFootprintBytes(4.0 * h * h, 4.0 * h, qm) + vec_bytes;
    if (qm != quant::QuantMode::Fp32)
        k.quantWeightElems = 4.0 * h * h;
    // With B > 1 the kernel widens into a narrow Sgemm over the B
    // h-columns and inherits its shared-memory behaviour.
    k.sharedBytes =
        ctx.batch > 1
            ? macs * sgemmSharedBytesPerMac(shape.hiddenSize, ctx.batch)
            : macs * sgemvSharedBytesPerMac();
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(4.0 * h * b);
    k.syncsPerCta = 2;
    tagQuant(k.name, qm);
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::tissueSgemm(const LstmLayerShape &shape, std::size_t tissue_size,
                      double dram_bytes_weights, double skip_fraction,
                      const KernelBuildCtx &ctx) const
{
    const quant::QuantMode qm = ctx.quant;
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double tk = static_cast<double>(tissue_size);
    const double keep = 1.0 - skip_fraction;
    const double macs = 4.0 * h * h * tk * b;

    gpu::KernelDesc k;
    k.name = "Sgemm(U_fico, H_t)";
    k.klass = gpu::KernelClass::Sgemm;
    // With DRS inside the tissue, skipped rows drop their compute and
    // on-chip traffic; the weight load is shared across cells (and
    // batch columns) and only disappears for rows trivial in *every*
    // cell of every sequence — the paper's "overlap" between the two
    // optimisations (Section VI-B3).
    const double all_skip = std::pow(skip_fraction, tk * b);
    const double weight_bytes =
        dram_bytes_weights * (1.0 - 0.75 * all_skip);
    k.flops = 2.0 * macs * keep;
    k.dramReadBytes = weight_bytes + tk * h * kFloat * b;
    k.dramWeightBytes = weight_bytes;
    k.weightStream = gpu::WeightStream::U;
    k.dramScaleBytes =
        weight_bytes * scaleShare(4.0 * h * h, 4.0 * h, qm, cfg_.int8DotUnits);
    k.dramWriteBytes = tk * 4.0 * h * kFloat * b;
    k.l2AccessBytes = weightFootprintBytes(4.0 * h * h, 4.0 * h, qm) +
                      tk * 5.0 * h * kFloat * b;
    k.sharedBytes = macs * keep *
                    sgemmSharedBytesPerMac(shape.hiddenSize,
                                           tissue_size * ctx.batch);
    if (qm != quant::QuantMode::Fp32)
        k.quantWeightElems = 4.0 * h * h * (1.0 - 0.75 * all_skip);
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(4.0 * h * tk * b);
    k.syncsPerCta = 4;
    if (skip_fraction > 0.0) {
        k.hasRowSkipArg = true;
        k.disabledThreads = static_cast<unsigned>(
            skip_fraction * 3.0 * h * tk * b);
    }
    tagQuant(k.name, qm);
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::elementWise(const LstmLayerShape &shape, std::size_t cells,
                      const KernelBuildCtx &ctx) const
{
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double elems = h * static_cast<double>(cells) * b;
    const double bytes = 7.0 * elems * kFloat;  // gates + c in/out + h

    gpu::KernelDesc k;
    k.name = "lstm_ew";
    k.klass = gpu::KernelClass::ElementWise;
    k.flops = 25.0 * elems;  // activations + state update per element
    // Inputs were just produced by the preceding GEMM kernels and are
    // still L2-resident; only spill traffic reaches DRAM.
    k.dramReadBytes = 0.1 * bytes;
    k.dramWriteBytes = 0.1 * bytes;
    k.dramSpillBytes = k.dramReadBytes + k.dramWriteBytes;
    k.l2AccessBytes = bytes;
    k.sharedBytes = 0.0;
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(elems);
    k.syncsPerCta = 0;
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::outputGateSgemv(const LstmLayerShape &shape,
                          double dram_bytes_weights,
                          const KernelBuildCtx &ctx) const
{
    const quant::QuantMode qm = ctx.quant;
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double macs = h * h * b;

    gpu::KernelDesc k;
    k.name = ctx.fusedFlags ? "Sgemv(U_o, h)+flags" : "Sgemv(U_o, h)";
    k.klass = gpu::KernelClass::Sgemv;
    k.flops = 2.0 * macs;
    k.dramReadBytes = dram_bytes_weights + h * kFloat * b;
    k.dramWeightBytes = dram_bytes_weights;
    k.weightStream = gpu::WeightStream::U;
    k.dramScaleBytes = dram_bytes_weights * scaleShare(h * h, h, qm, cfg_.int8DotUnits);
    k.dramWriteBytes = h * kFloat * b;
    k.l2AccessBytes = weightFootprintBytes(h * h, h, qm) +
                      2.0 * h * kFloat * b;
    if (ctx.fusedFlags) {
        // sigma(o) + compare against alpha per element, one flag byte
        // out: noise next to the h^2 reduction.
        k.flops += 6.0 * h * b;
        k.dramWriteBytes += h * b;
        k.dramCrmMetaBytes = h * b;
        k.l2AccessBytes += h * b;
    }
    if (qm != quant::QuantMode::Fp32)
        k.quantWeightElems = h * h;
    k.sharedBytes =
        ctx.batch > 1
            ? macs * sgemmSharedBytesPerMac(shape.hiddenSize, ctx.batch)
            : macs * sgemvSharedBytesPerMac();
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(h * b);
    k.syncsPerCta = 2;
    tagQuant(k.name, qm);
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::drsScan(const LstmLayerShape &shape,
                  const KernelBuildCtx &ctx) const
{
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);

    gpu::KernelDesc k;
    k.name = "DRS(o_t, alpha, R)";
    k.klass = gpu::KernelClass::Drs;
    k.flops = 3.0 * h * b;  // compare + flag + compacting scan
    k.dramReadBytes = 0.0;
    k.dramWriteBytes = 0.0;
    k.l2AccessBytes = 2.0 * h * kFloat * b;
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(h * b);
    k.syncsPerCta = 1;
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::rowSkipSgemv(const LstmLayerShape &shape,
                       double dram_bytes_weights, double skip_fraction,
                       bool hw_compacted, const KernelBuildCtx &ctx) const
{
    if (skip_fraction < 0.0 || skip_fraction > 1.0)
        throw std::invalid_argument("rowSkipSgemv: bad skip fraction");

    const quant::QuantMode qm = ctx.quant;
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double keep = 1.0 - skip_fraction;
    const double macs = 3.0 * h * h * b;
    // A weight row stays on the bus unless every sequence in the batch
    // skips it (each sequence computes its own R from its own o_t).
    const double all_skip =
        ctx.batch > 1 ? std::pow(skip_fraction, b) : skip_fraction;

    gpu::KernelDesc k;
    k.name = "Sgemv(U_fic, h, R)";
    k.klass = gpu::KernelClass::Sgemv;
    k.flops = 2.0 * macs * keep;  // skipped rows are never computed
    k.hasRowSkipArg = true;
    k.disabledThreads =
        static_cast<unsigned>(std::round(skip_fraction * 3.0 * h * b));
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(3.0 * h * b);
    k.syncsPerCta = 2;

    if (hw_compacted) {
        // CRM-compacted grid: skipped rows vanish from both the issue
        // stage and the memory stream.
        k.dramWeightBytes = dram_bytes_weights * (1.0 - all_skip);
        k.dramReadBytes = k.dramWeightBytes + h * kFloat * b;
        k.sharedBytes = macs * keep * sgemvSharedBytesPerMac();
        k.divergenceFactor = 1.0;
    } else {
        // Software path: divergent warps, and skipped rows' bytes mostly
        // still cross the bus (transaction granularity).
        const double saving = swSkipCoalescedSaving() * all_skip;
        k.dramWeightBytes = dram_bytes_weights * (1.0 - saving);
        k.dramReadBytes = k.dramWeightBytes + h * kFloat * b;
        k.sharedBytes = macs * keep * sgemvSharedBytesPerMac();
        k.divergenceFactor = 1.0 + 1.2 * skip_fraction;
    }
    k.weightStream = gpu::WeightStream::U;
    k.dramScaleBytes =
        k.dramWeightBytes * scaleShare(3.0 * h * h, 3.0 * h, qm, cfg_.int8DotUnits);
    k.dramWriteBytes = 3.0 * h * kFloat * b;
    k.l2AccessBytes =
        weightFootprintBytes(3.0 * h * h, 3.0 * h, qm) *
            (hw_compacted ? keep : 1.0) +
        4.0 * h * kFloat * b;
    // Skipped rows are never dequantized: the convert happens inside
    // the surviving rows' FMA streams on both the CRM and sw paths.
    if (qm != quant::QuantMode::Fp32)
        k.quantWeightElems = 3.0 * h * h * keep;
    tagQuant(k.name, qm);
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::relevanceKernel(const LstmLayerShape &shape,
                          const KernelBuildCtx &ctx) const
{
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double n = static_cast<double>(shape.length);

    gpu::KernelDesc k;
    k.name = "relevance+predict";
    k.klass = gpu::KernelClass::Relevance;
    // Algorithm 2 per cell: a handful of ops per hidden element using
    // the precomputed row sums D and the Sgemm outputs X'. Pure
    // per-sequence runtime work — it scales with the batch.
    k.flops = 30.0 * h * n * b;
    k.dramReadBytes = 0.5 * n * 4.0 * h * kFloat * b;
    k.dramWriteBytes = n * kFloat * b;
    // The per-cell relevance curve is metadata of the breakpoint
    // search, not activation data the next kernel consumes.
    k.dramCrmMetaBytes = k.dramWriteBytes;
    k.l2AccessBytes = (n * 4.0 * h * kFloat + 4.0 * h * kFloat) * b;
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(n * h * b / 32.0);
    k.syncsPerCta = 1;
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::tissueGather(const LstmLayerShape &shape,
                       std::size_t tissue_size,
                       const KernelBuildCtx &ctx) const
{
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double tk = static_cast<double>(tissue_size);

    gpu::KernelDesc k;
    k.name = "gather(H_t, C_t)";
    k.klass = gpu::KernelClass::Other;
    k.flops = 0.0;
    k.l2AccessBytes = 4.0 * tk * h * kFloat * b;  // h and c, read + write
    k.dramReadBytes = 0.0;
    k.dramWriteBytes = 0.0;
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(tk * h * b);
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::persistentLayerKernel(const LstmLayerShape &shape,
                                gpu::WeightResidency residency,
                                std::size_t waves,
                                const KernelBuildCtx &ctx) const
{
    if (residency == gpu::WeightResidency::None)
        throw std::invalid_argument(
            "persistentLayerKernel: residency must be shared or regfile");
    if (waves == 0)
        throw std::invalid_argument(
            "persistentLayerKernel: zero waves");

    const quant::QuantMode qm = ctx.quant;
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double n = static_cast<double>(shape.length);
    const double w = static_cast<double>(waves);

    const double macs = 4.0 * h * h * n * b;
    // Quantized U footprint: codes + the per-row fp32 scales. The
    // resident share crosses the bus exactly once per sequence; the
    // overflow streams per wave through the same L2 model every other
    // flow uses.
    const double footprint =
        weightFootprintBytes(4.0 * h * h, 4.0 * h, qm);
    const double capacity = gpu::residencyCapacityBytes(cfg_, residency);
    const double resident = std::min(footprint, capacity);
    const double spill = footprint - resident;
    const double spill_traffic = layerWeightTraffic(spill, w);
    // Re-streaming beyond the overflow's compulsory first fetch — the
    // bytes on-chip residency failed to keep (ledger: residency-reload).
    const double reload = std::max(0.0, spill_traffic - spill);
    const double weight_bytes = resident + spill_traffic;
    const double act_in = n * h * kFloat * b;    // x' rows (gate inputs
                                                 // come precomputed from
                                                 // the input Sgemm)
    const double act_out = n * h * kFloat * b;   // h_t stream

    gpu::KernelDesc k;
    k.name = "persistent(U_fico)";
    k.name += std::string(" [") + gpu::toString(residency) + "]";
    k.klass = gpu::KernelClass::Persistent;
    // The recurrence plus the fused element-wise epilogue: no separate
    // lstm_ew kernels launch for a persistent layer.
    k.flops = 2.0 * macs + 25.0 * h * n * b;
    k.dramReadBytes = weight_bytes + act_in;
    k.dramWriteBytes = act_out;
    k.dramWeightBytes = weight_bytes;
    k.weightStream = gpu::WeightStream::U;
    // Scales quantize per row and stream with their codes on the
    // compulsory pass; the reload share is attributed whole to the
    // residency-reload cause, so the scale stream is sized on the
    // first-fetch bytes only (keeps the ledger sub-streams disjoint).
    k.dramScaleBytes = footprint * scaleShare(4.0 * h * h, 4.0 * h, qm, cfg_.int8DotUnits);
    k.dramResidencyReloadBytes = reload;
    // Gate vectors and h/c state live on chip between waves; the L2
    // sees the weight fetches plus the per-wave state round trips.
    k.l2AccessBytes = weight_bytes + n * 7.0 * h * kFloat * b;
    // Regfile residency feeds the FMAs straight from registers; shared
    // residency re-reads every weight once per use from shared memory
    // on top of the operand staging.
    k.sharedBytes =
        residency == gpu::WeightResidency::Shared ? macs * 5.0
                                                  : macs * 1.0;
    if (qm != quant::QuantMode::Fp32) {
        // Resident codes dequantize once per sequence — the point of
        // pinning them; only re-streamed overflow converts again.
        k.quantWeightElems = 4.0 * h * h * (weight_bytes / footprint);
    }
    k.residency = residency;
    k.residencyPinnedBytes = resident;
    k.threadsPerCta = kCta;
    // A persistent grid is sized to what the machine can keep resident,
    // not to the problem: every CTA must stay scheduled for the whole
    // sequence, so the grid is capped at the concurrent-CTA budget.
    const unsigned concurrent =
        cfg_.numSms * std::max(1u, std::min(cfg_.maxCtasPerSm,
                                            cfg_.maxThreadsPerSm / kCta));
    k.ctas = std::min(ctasFor(4.0 * h * b), concurrent);
    // One grid-wide barrier per wave keeps the recurrence ordered.
    k.syncsPerCta = static_cast<unsigned>(waves);
    tagQuant(k.name, qm);
    tagBatch(k.name, ctx.batch);
    return k;
}

gpu::KernelDesc
Lowering::prunedSgemv(const LstmLayerShape &shape,
                      double dram_bytes_weights, double prune_fraction,
                      const KernelBuildCtx &ctx) const
{
    const double b = checkedBatch(ctx.batch);
    const double h = static_cast<double>(shape.hiddenSize);
    const double keep = 1.0 - prune_fraction;
    const double macs = 4.0 * h * h * b;

    gpu::KernelDesc k;
    k.name = "SpMV(U_pruned, h)";
    k.klass = gpu::KernelClass::Sgemv;
    k.flops = 2.0 * macs * keep;
    // @p dram_bytes_weights is the per-cell share of the *pruned,
    // CSR-encoded* footprint's streaming traffic; the caller sizes it.
    k.dramReadBytes = dram_bytes_weights + h * kFloat * b;
    k.dramWeightBytes = dram_bytes_weights;
    // CSR values + column indices both stream the pruned U matrix.
    k.weightStream = gpu::WeightStream::U;
    k.dramWriteBytes = 4.0 * h * kFloat * b;
    k.l2AccessBytes = 4.0 * h * h * kFloat * keep * 1.5 +
                      5.0 * h * kFloat * b;
    k.sharedBytes = macs * keep * sgemvSharedBytesPerMac();
    k.coalescingFactor = 1.55;
    k.divergenceFactor = 1.6;
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(4.0 * h * b);
    k.syncsPerCta = 2;
    tagBatch(k.name, ctx.batch);
    return k;
}

void
Lowering::lowerLayer(const LstmLayerShape &shape,
                     const ExecutionPlan &plan, std::size_t layer_index,
                     gpu::KernelTrace &out, std::size_t batch) const
{
    checkedBatch(batch);

    // Emit from this layer's schedule alone — the single dispatch path
    // of DESIGN.md §14.
    LayerSchedule ls = plan.layerSchedule(layer_index);
    ls.validate();
    const std::size_t eff_batch = ls.batch ? ls.batch : batch;
    checkedBatch(eff_batch);

    const quant::QuantMode qm = ls.quant;
    const KernelBuildCtx ctx{eff_batch, qm, false};
    const double h = static_cast<double>(shape.hiddenSize);
    const double n = static_cast<double>(shape.length);
    // The U footprint that actually crosses the bus: quantized layers
    // stream integer codes plus the per-row fp32 scales (the CSR
    // comparator always stays fp32, enforced by LayerSchedule).
    const double u_bytes = weightFootprintBytes(4.0 * h * h, 4.0 * h, qm);

    // A layer's per-step (and per-tissue-size) kernels are one launch
    // repeated: each loop-invariant descriptor is built and stored once
    // (add, which stamps the layer), and every launch of it is an index
    // plus the timestep/tissue provenance.
    const int li = static_cast<int>(layer_index);
    const auto add = [&](gpu::KernelDesc k) {
        k.layer = li;
        return out.add(std::move(k));
    };
    // Per-cell flows: the same kernel sequence at every timestep.
    const auto push_cells = [&](std::initializer_list<std::size_t> step) {
        out.reserve(out.size() + shape.length * step.size());
        for (std::size_t t = 0; t < shape.length; ++t)
            for (std::size_t k : step)
                out.launch(k, static_cast<int>(t));
    };

    out.launch(add(inputSgemm(shape, ctx)));

    if (ls.prunedCsr) {
        // CSR storage: surviving values + 4 B column indices (1.5x the
        // surviving value bytes).
        const double pruned_footprint =
            u_bytes * (1.0 - ls.pruneFraction) * 1.5;
        const double traffic = layerWeightTraffic(pruned_footprint, n);
        push_cells(
            {add(prunedSgemv(shape, traffic / n, ls.pruneFraction, ctx)),
             add(elementWise(shape, 1, ctx))});
        return;
    }

    if (ls.persistent()) {
        // Persistent flow: one kernel per layer keeps the resident
        // share of U on chip across every wave of the sequence. With a
        // tissue schedule the waves are the DRS-relaxed tissue waves
        // (the breakpoint search still runs to find them); without one
        // the recurrence synchronises per timestep.
        std::size_t waves = shape.length;
        if (ls.usesTissues()) {
            if (std::accumulate(ls.tissueSizes.begin(),
                                ls.tissueSizes.end(),
                                std::size_t{0}) != shape.length)
                throw std::invalid_argument(
                    "lowerLayer: tissue sizes do not cover the layer");
            waves = ls.tissueSizes.size();
            out.launch(add(relevanceKernel(shape, ctx)));
        }
        out.launch(
            add(persistentLayerKernel(shape, ls.residency, waves, ctx)));
        return;
    }

    // A layer the breakpoint search could not divide (all tissues of
    // size 1) gains nothing from the tissue flow but would pay its
    // per-tissue kernel overheads; usesTissues() falls back to the
    // per-cell flow.
    if (ls.usesTissues()) {
        const std::vector<std::size_t> &sizes = ls.tissueSizes;
        if (std::accumulate(sizes.begin(), sizes.end(),
                            std::size_t{0}) != shape.length)
            throw std::invalid_argument(
                "lowerLayer: tissue sizes do not cover the layer");

        out.launch(add(relevanceKernel(shape, ctx)));

        const double tissues = static_cast<double>(sizes.size());
        const double traffic = layerWeightTraffic(u_bytes, tissues);
        std::string uo_name = "Sgemm(U_o, H_t)+flags";
        tagQuant(uo_name, qm);
        tagBatch(uo_name, eff_batch);
        std::string fic_name = "Sgemm(U_fic, H_t, R)";
        tagQuant(fic_name, qm);
        tagBatch(fic_name, eff_batch);

        // The kernels of one tissue depend on the layer and the tissue
        // size alone; a group is stored as group_size consecutive
        // kernels: gather, U_o+flags and U_fic (or the one Sgemm),
        // lstm_ew.
        const auto add_tissue_group = [&](std::size_t tissue) {
            add(tissueGather(shape, tissue, ctx));
            if (ls.skipActive()) {
                // Combined flow: per-tissue U_o Sgemm (whose epilogue
                // applies sigma and emits relevance flags -- DRS inside
                // a tissue always dispatches through the CRM, which
                // compacts them in hardware), then the row-skipped
                // U_fic Sgemm.
                const double flag_elems =
                    h * static_cast<double>(tissue * eff_batch);
                gpu::KernelDesc uo =
                    tissueSgemm(shape, tissue, 0.0, 0.0, ctx);
                uo.name = uo_name;
                uo.flops *= 0.25;
                uo.dramReadBytes = traffic / tissues * 0.25;
                uo.dramWeightBytes = uo.dramReadBytes;
                // The builder saw zero weight traffic; re-derive the
                // attribution sub-streams from the overridden figures
                // or the ledger's conservation check trips.
                uo.dramScaleBytes =
                    uo.dramWeightBytes *
                    scaleShare(h * h, h, qm, cfg_.int8DotUnits);
                uo.sharedBytes *= 0.25;
                uo.l2AccessBytes *= 0.25;
                uo.quantWeightElems *= 0.25;
                uo.ctas = std::max(1u, uo.ctas / 4);
                uo.flops += 6.0 * flag_elems;
                uo.dramWriteBytes += flag_elems;
                uo.dramCrmMetaBytes = flag_elems;
                uo.l2AccessBytes += flag_elems;
                add(std::move(uo));

                gpu::KernelDesc fic =
                    tissueSgemm(shape, tissue, traffic / tissues * 0.75,
                                ls.skipFraction, ctx);
                fic.name = fic_name;
                fic.flops *= 0.75;
                fic.sharedBytes *= 0.75;
                fic.l2AccessBytes *= 0.75;
                fic.quantWeightElems *= 0.75;
                add(std::move(fic));
            } else {
                add(tissueSgemm(shape, tissue, traffic / tissues, 0.0,
                                ctx));
            }
            add(elementWise(shape, tissue, ctx));
        };
        const std::size_t group_size = ls.skipActive() ? 4 : 3;

        // Aligned tissues take only a few distinct sizes: (tissue size,
        // index of the group's first stored kernel).
        std::vector<std::pair<std::size_t, std::size_t>> groups;
        out.reserve(out.size() + sizes.size() * group_size);
        int cell = 0;
        int ti = 0;
        for (std::size_t tissue : sizes) {
            auto it = std::find_if(
                groups.begin(), groups.end(),
                [&](const auto &g) { return g.first == tissue; });
            if (it == groups.end()) {
                it = groups.emplace(groups.end(), tissue,
                                    out.kernels().size());
                add_tissue_group(tissue);
            }
            for (std::size_t k = 0; k < group_size; ++k)
                out.launch(it->second + k, cell, ti);
            cell += static_cast<int>(tissue);
            ++ti;
        }
        return;
    }

    if (ls.skipActive()) {
        // Algorithm 3, per cell.
        const bool hw = ls.skipPath == SkipPath::HwCrm;
        const double uo_traffic = layerWeightTraffic(u_bytes * 0.25, n);
        const double fic_traffic = layerWeightTraffic(u_bytes * 0.75, n);
        const std::size_t fic = add(rowSkipSgemv(
            shape, fic_traffic / n, ls.skipFraction, hw, ctx));
        const std::size_t ew = add(elementWise(shape, 1, ctx));
        if (ls.flagFusion == FlagFusion::FusedEpilogue) {
            // Fused flag epilogue (Section V-B for hw-crm; on the
            // software path a searched fusion): the U_o epilogue
            // applies sigma and writes raw relevance flags, so the
            // standalone scan kernel and its extra element-wise pass
            // never launch. With the CRM the prefix-sum datapath
            // compacts the flags in the dispatch stage (priced as
            // crmCycles by the GMU model); the software path keeps its
            // divergent warps.
            KernelBuildCtx fctx = ctx;
            fctx.fusedFlags = true;
            push_cells(
                {add(outputGateSgemv(shape, uo_traffic / n, fctx)), fic,
                 ew});
        } else {
            push_cells({add(outputGateSgemv(shape, uo_traffic / n, ctx)),
                        ew, add(drsScan(shape, ctx)), fic, ew});
        }
        return;
    }

    // Baseline: Algorithm 1.
    const double traffic = layerWeightTraffic(u_bytes, n);
    push_cells({add(cellSgemv(shape, traffic / n, ctx)),
                add(elementWise(shape, 1, ctx))});
}

gpu::KernelTrace
Lowering::lower(const NetworkShape &shape, const ExecutionPlan &plan,
                std::size_t batch, std::size_t first_layer_index) const
{
    gpu::KernelTrace trace;
    for (std::size_t l = 0; l < shape.layers.size(); ++l)
        lowerLayer(shape.layers[l], plan, first_layer_index + l, trace,
                   batch);
    return trace;
}

} // namespace runtime
} // namespace mflstm
