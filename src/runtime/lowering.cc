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

/** Quantized kernels tag the precision in their trace name. */
void
tagQuant(std::string &name, quant::QuantMode qm)
{
    if (qm != quant::QuantMode::Fp32)
        name += std::string(" [") + quant::toString(qm) + "]";
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
 * which is exactly how it is applied to a kernel's (possibly
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

/** Shared-memory bytes per MAC for an Sgemv (input staged on chip). */
double
sgemvSharedBytesPerMac()
{
    return 4.0;  // only the input vector is staged on chip
}

/**
 * Fraction of a skipped row's DRAM bytes that software row-skip saves:
 * with one thread per row, a surviving warp still pulls the
 * transactions covering its skipped neighbours, so only ~15% of a
 * skipped row's bytes leave the bus.
 */
double
swSkipCoalescedSaving()
{
    return 0.15;
}

/** Per-layer weight-streaming DRAM traffic (cache model). */
double
layerWeightTraffic(const gpu::GpuConfig &cfg, double footprint_bytes,
                   double sweeps)
{
    return gpu::streamingReuseDramBytes(footprint_bytes, sweeps,
                                        static_cast<double>(cfg.l2Bytes));
}

/**
 * One weight-streaming matrix kernel: a slice of W or U times a block
 * of activation columns. Algorithm 1's input Sgemm and per-cell Sgemv,
 * Algorithm 3's U_o / U_fic split and the Section IV tissue Sgemm are
 * all rows of this one table:
 *
 *   kernel              stream  rows  depth  columns/seq  skip
 *   Sgemm(W_fico, x)    W       4H    E      n            off
 *   Sgemv(U_fico, h)    U       4H    H      1            off
 *   Sgemm(U_fico, H_t)  U       4H    H      tissue       off
 *   Sgemv(U_o, h)       U       H     H      1            off (+flags)
 *   Sgemv(U_fic, h, R)  U       3H    H      1            sw | hw-crm
 */
struct MatrixSlice
{
    const char *name;
    /// Sgemm (tiled over its columns) or Sgemv
    gpu::KernelClass klass;
    gpu::WeightStream stream;
    /// output rows in units of H: 4 (all gates), 1 (U_o) or 3 (U_fic)
    double gates;
    /// reduction length: E for W, H for U
    std::size_t depth;
    /// activation columns per sequence: the layer length, the tissue
    /// size or 1
    std::size_t columns;
    /// DRAM weight bytes the kernel streams (cache model applied)
    double weightBytes;
    /// fraction of the slice's rows skipped, and the dispatch that
    /// skips them
    double skip = 0.0;
    SkipPath path = SkipPath::Off;
    /// the epilogue applies sigma and emits one relevance flag per
    /// output element (the CRM dataflow: no standalone scan kernel)
    bool fusedFlags = false;
};

/**
 * The one builder of every weight-streaming matrix kernel. @p batch
 * sequences widen the activation columns: flops, activation traffic
 * and the grid scale with them, while the weight stream is charged
 * once per kernel, so one weight fetch serves the whole batch. A
 * quantized @p qm shrinks the weight-side DRAM/L2 terms to codes plus
 * a 4 B/row scale stream and sets quantWeightElems for the in-register
 * dequant cost.
 */
gpu::KernelDesc
matrixKernel(const gpu::GpuConfig &cfg, const LstmLayerShape &shape,
             const MatrixSlice &s, std::size_t batch, quant::QuantMode qm)
{
    const double h = static_cast<double>(shape.hiddenSize);
    const double b = static_cast<double>(batch);
    const double rows = s.gates * h;
    const double elems = rows * static_cast<double>(s.depth);
    const std::size_t cols = s.columns * batch;
    const double c = static_cast<double>(cols);
    const double macs = elems * c;
    const double keep = 1.0 - s.skip;
    // A weight row stays on the bus unless every column skips it (each
    // sequence computes its own R from its own o_t).
    const double all_skip = cols > 1 ? std::pow(s.skip, c) : s.skip;
    const double saving =
        s.path == SkipPath::HwCrm      ? all_skip
        : s.path == SkipPath::Software ? swSkipCoalescedSaving() * all_skip
                                       : 0.0;
    const double weight_bytes = s.weightBytes * (1.0 - saving);
    const double flag_elems = s.fusedFlags ? rows * b : 0.0;

    gpu::KernelDesc k;
    k.name = s.name;
    if (s.fusedFlags)
        k.name += "+flags";
    tagQuant(k.name, qm);
    tagBatch(k.name, batch);
    k.klass = s.klass;
    // Skipped rows are never computed; the fused epilogue's sigma and
    // compare are noise next to the reduction.
    k.flops = 2.0 * macs * keep + 6.0 * flag_elems;
    k.dramReadBytes =
        weight_bytes + static_cast<double>(s.depth) * kFloat * c;
    k.dramWeightBytes = weight_bytes;
    k.weightStream = s.stream;
    k.dramScaleBytes =
        weight_bytes * scaleShare(elems, rows, qm, cfg.int8DotUnits);
    k.dramWriteBytes = rows * kFloat * c + flag_elems;
    k.dramCrmMetaBytes = flag_elems;
    // The CRM-compacted grid never touches skipped rows, even in L2.
    k.l2AccessBytes =
        weightFootprintBytes(elems, rows, qm) *
            (s.path == SkipPath::HwCrm ? keep : 1.0) +
        (static_cast<double>(s.depth) + rows) * kFloat * c +
        flag_elems;
    // Sgemm stages both operand tiles; a batched Sgemv widens into a
    // narrow Sgemm over the batch columns and inherits its price, but
    // the row-skip Sgemv keeps the Sgemv price at any batch.
    const bool gemm_tiles =
        s.klass == gpu::KernelClass::Sgemm ||
        (cols > 1 && s.path == SkipPath::Off);
    k.sharedBytes = macs * keep *
                    (gemm_tiles
                         ? sgemmSharedBytesPerMac(shape.hiddenSize, cols)
                         : sgemvSharedBytesPerMac());
    // Skipped rows are never dequantized: the convert happens inside
    // the surviving rows' FMA streams on both the CRM and sw paths.
    if (qm != quant::QuantMode::Fp32)
        k.quantWeightElems = elems * keep;
    k.threadsPerCta = kCta;
    k.ctas = ctasFor(rows * c);
    k.syncsPerCta = s.klass == gpu::KernelClass::Sgemm ? 4 : 2;
    if (s.path != SkipPath::Off) {
        k.hasRowSkipArg = true;
        k.disabledThreads = static_cast<unsigned>(
            std::round(s.skip * s.gates * h * c));
        // Software skip leaves trivial- and non-trivial-row threads
        // divergent inside a warp; the CRM compacts the grid.
        if (s.path == SkipPath::Software)
            k.divergenceFactor = 1.0 + 1.2 * s.skip;
    }
    return k;
}

/**
 * The combined flow's per-tissue pair: Sgemm(U_o, H_t)+flags, whose
 * epilogue applies sigma and emits relevance flags (DRS inside a
 * tissue always dispatches through the CRM, which compacts them in
 * hardware), then the row-skipped Sgemm(U_fic, H_t, R). Each half is
 * priced as its 1/4 or 3/4 share of the 4H tissue Sgemm rather than as
 * its own slice, which differs from matrixKernel in the ways DESIGN.md
 * §14 lists under "Combined-tissue pricing".
 */
std::pair<gpu::KernelDesc, gpu::KernelDesc>
combinedTissuePair(const gpu::GpuConfig &cfg, const LstmLayerShape &shape,
                   std::size_t tissue, double tissue_weight_bytes,
                   double skip, std::size_t batch, quant::QuantMode qm)
{
    const double h = static_cast<double>(shape.hiddenSize);
    const double tk = static_cast<double>(tissue);
    const double b = static_cast<double>(batch);
    const bool quantized = qm != quant::QuantMode::Fp32;
    // The 4H tissue Sgemm both halves take their share of.
    const double macs = 4.0 * h * h * tk * b;
    const double shared_per_mac =
        sgemmSharedBytesPerMac(shape.hiddenSize, tissue * batch);
    const double l2_bytes = weightFootprintBytes(4.0 * h * h, 4.0 * h, qm) +
                            tk * 5.0 * h * kFloat * b;
    const double out_bytes = tk * 4.0 * h * kFloat * b;
    const unsigned ctas = ctasFor(4.0 * h * tk * b);
    const double flag_elems = h * static_cast<double>(tissue * batch);

    gpu::KernelDesc uo;
    uo.name = "Sgemm(U_o, H_t)+flags";
    tagQuant(uo.name, qm);
    tagBatch(uo.name, batch);
    uo.klass = gpu::KernelClass::Sgemm;
    uo.flops = 2.0 * macs * 0.25 + 6.0 * flag_elems;
    uo.dramReadBytes = tissue_weight_bytes * 0.25;
    uo.dramWeightBytes = uo.dramReadBytes;
    uo.weightStream = gpu::WeightStream::U;
    uo.dramScaleBytes = uo.dramWeightBytes *
                        scaleShare(h * h, h, qm, cfg.int8DotUnits);
    uo.dramWriteBytes = out_bytes + flag_elems;
    uo.dramCrmMetaBytes = flag_elems;
    uo.l2AccessBytes = l2_bytes * 0.25 + flag_elems;
    uo.sharedBytes = macs * shared_per_mac * 0.25;
    uo.quantWeightElems = quantized ? 4.0 * h * h * 0.25 : 0.0;
    uo.threadsPerCta = kCta;
    uo.ctas = std::max(1u, ctas / 4);
    uo.syncsPerCta = 4;

    // The weight load is shared across cells (and batch columns) and
    // only disappears for rows trivial in *every* cell of every
    // sequence — the paper's "overlap" between the two optimisations
    // (Section VI-B3). Skipped rows drop their compute and on-chip
    // traffic.
    const double keep = 1.0 - skip;
    const double kept_weight = 1.0 - 0.75 * std::pow(skip, tk * b);
    gpu::KernelDesc fic;
    fic.name = "Sgemm(U_fic, H_t, R)";
    tagQuant(fic.name, qm);
    tagBatch(fic.name, batch);
    fic.klass = gpu::KernelClass::Sgemm;
    fic.flops = 2.0 * macs * keep * 0.75;
    fic.dramWeightBytes = tissue_weight_bytes * 0.75 * kept_weight;
    fic.dramReadBytes = fic.dramWeightBytes + tk * h * kFloat * b;
    fic.weightStream = gpu::WeightStream::U;
    fic.dramScaleBytes =
        fic.dramWeightBytes *
        scaleShare(4.0 * h * h, 4.0 * h, qm, cfg.int8DotUnits);
    fic.dramWriteBytes = out_bytes;
    fic.l2AccessBytes = l2_bytes * 0.75;
    fic.sharedBytes = macs * keep * shared_per_mac * 0.75;
    fic.quantWeightElems =
        quantized ? 4.0 * h * h * kept_weight * 0.75 : 0.0;
    fic.threadsPerCta = kCta;
    fic.ctas = ctas;
    fic.syncsPerCta = 4;
    fic.hasRowSkipArg = true;
    fic.disabledThreads =
        static_cast<unsigned>(skip * 3.0 * h * tk * b);
    return {std::move(uo), std::move(fic)};
}

/** Element-wise kernel over @p cells cells' gate vectors. */
gpu::KernelDesc
elementWise(const LstmLayerShape &shape, std::size_t cells,
            std::size_t batch)
{
    const double h = static_cast<double>(shape.hiddenSize);
    const double elems =
        h * static_cast<double>(cells) * static_cast<double>(batch);
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
    tagBatch(k.name, batch);
    return k;
}

/** DRS threshold/scan kernel (Algorithm 3 line 6). */
gpu::KernelDesc
drsScan(const LstmLayerShape &shape, std::size_t batch)
{
    const double b = static_cast<double>(batch);
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
    tagBatch(k.name, batch);
    return k;
}

/** Inter-cell breakpoint search + link prediction (runtime ops). */
gpu::KernelDesc
relevanceKernel(const LstmLayerShape &shape, std::size_t batch)
{
    const double b = static_cast<double>(batch);
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
    tagBatch(k.name, batch);
    return k;
}

/** Gathers h/c vectors of a tissue into the batched H_t/C_t. */
gpu::KernelDesc
tissueGather(const LstmLayerShape &shape, std::size_t tissue_size,
             std::size_t batch)
{
    const double b = static_cast<double>(batch);
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
    tagBatch(k.name, batch);
    return k;
}

/**
 * Persistent layer kernel (Appleyard-style): one launch covers the
 * whole sequence, with min(U footprint, residency capacity) of the
 * quantized U pinned on chip and charged to DRAM once, and the
 * overflow streamed per wave through the L2 model (reported in
 * KernelDesc::dramResidencyReloadBytes beyond its compulsory first
 * pass). @p waves is the grid-wide synchronisation count: the tissue
 * count when the layer runs the tissue flow, the sequence length for
 * the dense recurrence.
 */
gpu::KernelDesc
persistentLayerKernel(const gpu::GpuConfig &cfg,
                      const LstmLayerShape &shape,
                      gpu::WeightResidency residency, std::size_t waves,
                      std::size_t batch, quant::QuantMode qm)
{
    if (waves == 0)
        throw std::invalid_argument(
            "persistentLayerKernel: zero waves");

    const double b = static_cast<double>(batch);
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
    const double capacity = gpu::residencyCapacityBytes(cfg, residency);
    const double resident = std::min(footprint, capacity);
    const double spill = footprint - resident;
    const double spill_traffic = layerWeightTraffic(cfg, spill, w);
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
    k.dramScaleBytes = footprint * scaleShare(4.0 * h * h, 4.0 * h, qm,
                                              cfg.int8DotUnits);
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
        cfg.numSms * std::max(1u, std::min(cfg.maxCtasPerSm,
                                           cfg.maxThreadsPerSm / kCta));
    k.ctas = std::min(ctasFor(4.0 * h * b), concurrent);
    // One grid-wide barrier per wave keeps the recurrence ordered.
    k.syncsPerCta = static_cast<unsigned>(waves);
    tagQuant(k.name, qm);
    tagBatch(k.name, batch);
    return k;
}

/**
 * Sparse (zero-pruned) per-cell SpMV of the comparator scheme. Not a
 * matrixKernel row: the CSR column indices inflate its L2 footprint
 * by 1.5x, its gathers pay a coalescing and divergence penalty, and a
 * batch never widens it into a tiled Sgemm.
 */
gpu::KernelDesc
prunedSgemv(const LstmLayerShape &shape, double dram_bytes_weights,
            double prune_fraction, std::size_t batch)
{
    const double b = static_cast<double>(batch);
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
    tagBatch(k.name, batch);
    return k;
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

void
Lowering::lowerLayer(const LstmLayerShape &shape,
                     const ExecutionPlan &plan, std::size_t layer_index,
                     gpu::KernelTrace &out, std::size_t batch) const
{
    if (batch == 0)
        throw std::invalid_argument("Lowering: batch must be >= 1");

    // Emit from this layer's schedule alone — the single dispatch path
    // of DESIGN.md §14.
    LayerSchedule ls = plan.layerSchedule(layer_index);
    ls.validate();

    const quant::QuantMode qm = ls.quant;
    const double h = static_cast<double>(shape.hiddenSize);
    const double n = static_cast<double>(shape.length);
    // The U footprint that actually crosses the bus: quantized layers
    // stream integer codes plus the per-row fp32 scales (the CSR
    // comparator always stays fp32, enforced by LayerSchedule).
    const double u_bytes = weightFootprintBytes(4.0 * h * h, 4.0 * h, qm);
    const auto traffic = [&](double footprint, double sweeps) {
        return layerWeightTraffic(cfg_, footprint, sweeps);
    };
    const auto matrix = [&](const MatrixSlice &slice) {
        return matrixKernel(cfg_, shape, slice, batch, qm);
    };

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

    // Per-layer input projection: the W stream is fetched once.
    const double e = static_cast<double>(shape.inputSize);
    out.launch(add(matrix({"Sgemm(W_fico, x)", gpu::KernelClass::Sgemm,
                           gpu::WeightStream::W, 4.0, shape.inputSize,
                           shape.length,
                           weightFootprintBytes(4.0 * h * e, 4.0 * h,
                                                qm)})));

    if (ls.prunedCsr) {
        // CSR storage: surviving values + 4 B column indices (1.5x the
        // surviving value bytes).
        const double pruned_footprint =
            u_bytes * (1.0 - ls.pruneFraction) * 1.5;
        push_cells({add(prunedSgemv(shape,
                                    traffic(pruned_footprint, n) / n,
                                    ls.pruneFraction, batch)),
                    add(elementWise(shape, 1, batch))});
        return;
    }

    // A layer the breakpoint search could not divide (all tissues of
    // size 1) gains nothing from the tissue flow but would pay its
    // per-tissue kernel overheads; usesTissues() falls back to the
    // per-cell flow.
    const std::vector<std::size_t> &sizes = ls.tissueSizes;
    if (ls.usesTissues()) {
        if (std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}) !=
            shape.length)
            throw std::invalid_argument(
                "lowerLayer: tissue sizes do not cover the layer");
        out.launch(add(relevanceKernel(shape, batch)));
    }

    if (ls.persistent()) {
        // Persistent flow: one kernel per layer keeps the resident
        // share of U on chip across every wave of the sequence. With a
        // tissue schedule the waves are the DRS-relaxed tissue waves
        // (the breakpoint search above still runs to find them);
        // without one the recurrence synchronises per timestep.
        const std::size_t waves =
            ls.usesTissues() ? sizes.size() : shape.length;
        out.launch(add(persistentLayerKernel(cfg_, shape, ls.residency,
                                             waves, batch, qm)));
        return;
    }

    if (ls.usesTissues()) {
        const double tissues = static_cast<double>(sizes.size());
        const double tissue_bytes = traffic(u_bytes, tissues) / tissues;

        // The kernels of one tissue depend on the layer and the tissue
        // size alone; a group is stored as group_size consecutive
        // kernels: gather, U_o+flags and U_fic (or the one Sgemm),
        // lstm_ew.
        const auto add_tissue_group = [&](std::size_t tissue) {
            add(tissueGather(shape, tissue, batch));
            if (ls.skipActive()) {
                auto [uo, fic] =
                    combinedTissuePair(cfg_, shape, tissue, tissue_bytes,
                                       ls.skipFraction, batch, qm);
                add(std::move(uo));
                add(std::move(fic));
            } else {
                add(matrix({"Sgemm(U_fico, H_t)", gpu::KernelClass::Sgemm,
                            gpu::WeightStream::U, 4.0, shape.hiddenSize,
                            tissue, tissue_bytes}));
            }
            add(elementWise(shape, tissue, batch));
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
        // Algorithm 3, per cell: Sgemv(U_o, h), then the row-skipped
        // Sgemv(U_fic, h, R).
        const bool fused = ls.flagFusion == FlagFusion::FusedEpilogue;
        const std::size_t fic = add(matrix(
            {"Sgemv(U_fic, h, R)", gpu::KernelClass::Sgemv,
             gpu::WeightStream::U, 3.0, shape.hiddenSize, 1,
             traffic(u_bytes * 0.75, n) / n, ls.skipFraction,
             ls.skipPath}));
        const std::size_t ew = add(elementWise(shape, 1, batch));
        const std::size_t uo = add(matrix(
            {"Sgemv(U_o, h)", gpu::KernelClass::Sgemv,
             gpu::WeightStream::U, 1.0, shape.hiddenSize, 1,
             traffic(u_bytes * 0.25, n) / n, 0.0, SkipPath::Off, fused}));
        if (fused) {
            // Fused flag epilogue (Section V-B for hw-crm; on the
            // software path a searched fusion): the U_o epilogue
            // applies sigma and writes raw relevance flags, so the
            // standalone scan kernel and its extra element-wise pass
            // never launch. With the CRM the prefix-sum datapath
            // compacts the flags in the dispatch stage (priced as
            // crmCycles by the GMU model); the software path keeps its
            // divergent warps.
            push_cells({uo, fic, ew});
        } else {
            push_cells({uo, ew, add(drsScan(shape, batch)), fic, ew});
        }
        return;
    }

    // Baseline: Algorithm 1.
    push_cells({add(matrix({"Sgemv(U_fico, h)", gpu::KernelClass::Sgemv,
                            gpu::WeightStream::U, 4.0, shape.hiddenSize,
                            1, traffic(u_bytes, n) / n})),
                add(elementWise(shape, 1, batch))});
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
