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
 * Every weight-streaming matrix kernel — the input Sgemm, the per-cell
 * Sgemv, the tissue Sgemm and the split Sgemv(U_o) / Sgemv(U_fic, h, R)
 * — is one row of a slice table priced by a single builder in
 * lowering.cc (DESIGN.md §14): a slice of W or U, a block of activation
 * columns, the DRAM weight bytes streamed, the skipped rows and their
 * skip path, and the fused flag epilogue. The builders are private to
 * the lowering; callers observe kernels by lowering a plan.
 *
 * Traffic calibration (see DESIGN.md §5): Sgemv stages the input vector
 * in shared memory (4 B/MAC of on-chip traffic) and streams weights from
 * DRAM through the L2; Sgemm stages both operand tiles in shared memory
 * (~8 B/MAC; small hidden sizes double-buffer better and pay ~6.6 B/MAC,
 * which is what makes the BABI/MR maximum tissue size land at 6 instead
 * of 5). Cross-kernel weight reuse follows the streaming L2 model in
 * gpu/cache.hh.
 *
 * Cross-sequence batching (DESIGN.md §9): a batch of B sequences
 * (default 1, bit-identical to the unbatched lowering) multiplies
 * per-sequence work — flops, activation traffic, grid size — by B
 * while charging the weight-matrix DRAM stream once per kernel, so one
 * weight fetch serves B concurrent sequences. The weight share is
 * reported in KernelDesc::dramWeightBytes so the serving layer can
 * observe the per-sequence amortisation.
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

  private:
    const gpu::GpuConfig &cfg_;
};

} // namespace runtime
} // namespace mflstm

#endif // MFLSTM_RUNTIME_LOWERING_HH
