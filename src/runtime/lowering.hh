/**
 * @file
 * LSTM-to-kernel lowering: turns a network shape plus an execution plan
 * into the kernel trace the GPU simulator consumes. This captures the
 * paper's three computation flows —
 *
 *   Algorithm 1 (baseline): Sgemm(W,x) per layer, Sgemv(U,h) + lstm_ew
 *   per cell;
 *
 *   Section IV-D (inter-cell): breakpoint search + link prediction
 *   kernels after the input Sgemm, then one batched Sgemm(U,H_t) +
 *   lstm_ew per tissue;
 *
 *   Algorithm 3 (intra-cell DRS): split Sgemv(U_o) -> lstm_ew(o_t) ->
 *   DRS scan -> row-skipped Sgemv(U_fic,h,R) -> lstm_ew per cell;
 *
 * plus the zero-pruning comparator of Section VI-B2 and the persistent
 * residency flow (Appleyard et al., PAPERS.md): one persistent kernel
 * per layer with the recurrent weights pinned in shared memory or the
 * register file across every wave of the sequence.
 *
 * Dispatch is decision-driven (DESIGN.md §14): lowerLayer takes the
 * layer's LayerSchedule from the plan and emits from that alone — the
 * PlanKind presets are canonical decisions, and the src/sched search
 * composes points the enum never named (software skip with a fused
 * flag epilogue, per-layer precision).
 *
 * Traffic calibration (see DESIGN.md §5): Sgemv stages the input vector
 * in shared memory (4 B/MAC of on-chip traffic) and streams weights from
 * DRAM through the L2; Sgemm stages both operand tiles in shared memory
 * (~8 B/MAC; small hidden sizes double-buffer better and pay ~6.6 B/MAC,
 * which is what makes the BABI/MR maximum tissue size land at 6 instead
 * of 5). Cross-kernel weight reuse follows the streaming L2 model in
 * gpu/cache.hh.
 *
 * Cross-sequence batching (DESIGN.md §9): every builder accepts a batch
 * dimension B (default 1, bit-identical to the unbatched lowering). A
 * batched kernel multiplies per-sequence work — flops, activation
 * traffic, grid size — by B while charging the weight-matrix DRAM
 * stream once per kernel, so one weight fetch serves B concurrent
 * sequences. The weight share is reported in KernelDesc::dramWeightBytes
 * so the serving layer can observe the per-sequence amortisation.
 */

#ifndef MFLSTM_RUNTIME_LOWERING_HH
#define MFLSTM_RUNTIME_LOWERING_HH

#include "gpu/config.hh"
#include "gpu/kernel.hh"
#include "runtime/plan.hh"

namespace mflstm {
namespace runtime {

/**
 * Shared-memory bytes per MAC for an Sgemm with @p cols output columns.
 * Wide GEMMs (the per-layer input projection) register-block 8x8 tiles
 * and touch shared memory rarely; the narrow per-tissue GEMM (cols =
 * tissue size <= MTS) cannot block along columns and re-reads both
 * operands from shared memory almost per MAC.
 */
double sgemmSharedBytesPerMac(std::size_t hidden_size, std::size_t cols);

/** Shared-memory bytes per MAC for an Sgemv (input staged on chip). */
double sgemvSharedBytesPerMac();

/**
 * Fraction of a skipped row's DRAM bytes that software row-skip fails to
 * save: with one thread per row, a warp's surviving lanes still touch
 * the memory transactions that cover its skipped neighbours, so only a
 * small fraction of the skipped bytes disappears from the bus.
 */
double swSkipCoalescedSaving();

/**
 * Common knobs of every kernel builder, collapsed into one options
 * struct (the old trailing `(batch, quantMode, ...)` parameter tails).
 * Default-constructed it yields the unbatched fp32 kernel. New
 * backend/persistent-kernel knobs belong here, not as another defaulted
 * parameter on ten builders.
 */
struct KernelBuildCtx
{
    /// sequences sharing every weight fetch (>= 1)
    std::size_t batch = 1;
    /// weight precision priced into the DRAM/L2 terms (DESIGN.md §12)
    quant::QuantMode quant = quant::QuantMode::Fp32;
    /**
     * outputGateSgemv only: the epilogue also applies sigma and emits
     * the relevance flag per output element (the CRM dataflow — the
     * hardware consumes raw flags in the dispatch stage, so no
     * standalone scan kernel runs).
     */
    bool fusedFlags = false;

    bool operator==(const KernelBuildCtx &) const = default;
};

/** Lowers network shapes + plans into kernel traces for one GPU. */
class Lowering
{
  public:
    explicit Lowering(const gpu::GpuConfig &cfg) : cfg_(cfg) {}

    /**
     * Lower one layer: stores each of its distinct kernels in @p out
     * once and appends their launches. @p batch sequences
     * share every weight fetch (1 = the single-sequence flow). The
     * layer's LayerSchedule (plan.layerSchedule(layer_index)) decides
     * every emission choice; it is validated before anything is
     * emitted.
     */
    void lowerLayer(const LstmLayerShape &shape,
                    const ExecutionPlan &plan, std::size_t layer_index,
                    gpu::KernelTrace &out, std::size_t batch = 1) const;

    /**
     * Lower the whole network. @p first_layer_index offsets the plan /
     * provenance layer index (used by single-layer runs).
     */
    gpu::KernelTrace lower(const NetworkShape &shape,
                           const ExecutionPlan &plan,
                           std::size_t batch = 1,
                           std::size_t first_layer_index = 0) const;

    // --- Individual kernel builders (exposed for tests/benches) --------
    // Every builder takes a KernelBuildCtx last; omitting it yields the
    // unbatched fp32 kernel. A quantized ctx shrinks the weight-side
    // DRAM/L2 terms by quant::bytesPerWeight (plus a 4 B/row scale
    // stream) and sets KernelDesc::quantWeightElems for the in-register
    // dequant cost.

    /** Per-layer input projection Sgemm(W_{f,i,c,o}, x). */
    gpu::KernelDesc inputSgemm(const LstmLayerShape &shape,
                               const KernelBuildCtx &ctx = {}) const;

    /**
     * Baseline per-cell Sgemv(U_{f,i,c,o}, h_{t-1}); with a batch it
     * widens into a narrow Sgemm over the B h-columns.
     * @param dram_bytes_weights  this cell's share of the layer's
     *        weight-streaming DRAM traffic (cache model applied at layer
     *        granularity).
     */
    gpu::KernelDesc cellSgemv(const LstmLayerShape &shape,
                              double dram_bytes_weights,
                              const KernelBuildCtx &ctx = {}) const;

    /** Per-tissue Sgemm(U_{f,i,c,o}, H_t) over @p tissue_size cells. */
    gpu::KernelDesc tissueSgemm(const LstmLayerShape &shape,
                                std::size_t tissue_size,
                                double dram_bytes_weights,
                                double skip_fraction,
                                const KernelBuildCtx &ctx = {}) const;

    /** Element-wise kernel over @p cells cells' gate vectors. */
    gpu::KernelDesc elementWise(const LstmLayerShape &shape,
                                std::size_t cells,
                                const KernelBuildCtx &ctx = {}) const;

    /**
     * DRS split kernel 1: Sgemv(U_o, h_{t-1}). With ctx.fusedFlags the
     * epilogue also applies sigma and emits the relevance flag per
     * output element.
     */
    gpu::KernelDesc outputGateSgemv(const LstmLayerShape &shape,
                                    double dram_bytes_weights,
                                    const KernelBuildCtx &ctx = {}) const;

    /** DRS threshold/scan kernel (Algorithm 3 line 6). */
    gpu::KernelDesc drsScan(const LstmLayerShape &shape,
                            const KernelBuildCtx &ctx = {}) const;

    /**
     * DRS split kernel 2: Sgemv(U_{f,i,c}, h, R) with @p skip_fraction of
     * rows disabled. @p hw_compacted selects the CRM dataflow (full
     * bandwidth saving) vs the divergent software path. Across a batch a
     * weight row is fetched unless every sequence skips it, so the
     * saved weight traffic shrinks as skip^batch (the cross-sequence
     * analogue of the Section VI-B3 overlap).
     */
    gpu::KernelDesc rowSkipSgemv(const LstmLayerShape &shape,
                                 double dram_bytes_weights,
                                 double skip_fraction, bool hw_compacted,
                                 const KernelBuildCtx &ctx = {}) const;

    /** Inter-cell breakpoint search + link prediction (runtime ops). */
    gpu::KernelDesc relevanceKernel(const LstmLayerShape &shape,
                                    const KernelBuildCtx &ctx = {}) const;

    /** Gathers h/c vectors of a tissue into the batched H_t/C_t. */
    gpu::KernelDesc tissueGather(const LstmLayerShape &shape,
                                 std::size_t tissue_size,
                                 const KernelBuildCtx &ctx = {}) const;

    /** Sparse (zero-pruned) per-cell Sgemv of the comparator scheme. */
    gpu::KernelDesc prunedSgemv(const LstmLayerShape &shape,
                                double dram_bytes_weights,
                                double prune_fraction,
                                const KernelBuildCtx &ctx = {}) const;

    /**
     * Persistent layer kernel (Appleyard-style): one launch covers the
     * whole sequence, with min(U footprint, residency capacity) of the
     * quantized U pinned on chip and charged to DRAM once, and the
     * overflow streamed per wave through the L2 model (reported in
     * KernelDesc::dramResidencyReloadBytes beyond its compulsory first
     * pass). @p waves is the grid-wide synchronisation count: the
     * tissue count when the layer runs the tissue flow, the sequence
     * length for the dense recurrence.
     */
    gpu::KernelDesc persistentLayerKernel(const LstmLayerShape &shape,
                                          gpu::WeightResidency residency,
                                          std::size_t waves,
                                          const KernelBuildCtx &ctx =
                                              {}) const;

    /** Per-layer weight-streaming DRAM traffic (cache model). */
    double layerWeightTraffic(double footprint_bytes,
                              double sweeps) const;

  private:
    const gpu::GpuConfig &cfg_;
};

} // namespace runtime
} // namespace mflstm

#endif // MFLSTM_RUNTIME_LOWERING_HH
