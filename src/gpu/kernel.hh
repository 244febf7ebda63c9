/**
 * @file
 * Kernel descriptors: the interface between the LSTM runtime (which
 * lowers Algorithm 1 / Algorithm 3 / the tissue flow into kernel
 * sequences) and the GPU timing simulator. A KernelDesc plays the role a
 * compiled cuDNN/cuBLAS kernel plays on the real board: grid geometry
 * plus aggregate work and traffic.
 */

#ifndef MFLSTM_GPU_KERNEL_HH
#define MFLSTM_GPU_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

namespace mflstm {
namespace gpu {

/** Kernel families the LSTM runtime emits (Sections II-C and V-B). */
enum class KernelClass {
    Sgemm,        ///< matrix-matrix multiply
    Sgemv,        ///< matrix-vector multiply
    ElementWise,  ///< lstm_ew: gate nonlinearities + state update
    Drs,          ///< the DRS threshold/scan kernel of Algorithm 3 line 6
    Relevance,    ///< inter-cell breakpoint search (Algorithm 2)
    Persistent,   ///< persistent layer kernel, weights resident on-chip
    Other,
};

const char *toString(KernelClass k);

/** Which weight matrix a kernel streams (attribution axis). */
enum class WeightStream : std::uint8_t {
    None,  ///< kernel streams no weight matrix
    W,     ///< input projection W_{f,i,c,o}
    U,     ///< recurrent U_{f,i,c,o}
};

const char *toString(WeightStream w);

/**
 * On-chip tier the recurrent weights of a persistent kernel are pinned
 * in across the whole sequence (Appleyard et al. persistent RNNs). The
 * tier decides the pinnable capacity and the occupancy price the SM
 * model charges (GpuConfig residency knobs): shared memory is plentiful
 * but slower to re-read; the register file is the fast tier the
 * persistent-RNN literature targets.
 */
enum class WeightResidency : std::uint32_t {
    None = 0,     ///< weights streamed from DRAM every timestep
    Shared = 1,   ///< pinned in shared memory across the sequence
    Regfile = 2,  ///< pinned in the register file across the sequence
};

const char *toString(WeightResidency r);

/** One GPU kernel launch, in aggregate-work form. */
struct KernelDesc
{
    std::string name;
    KernelClass klass = KernelClass::Other;

    // --- Grid geometry --------------------------------------------------
    unsigned ctas = 1;
    unsigned threadsPerCta = 128;

    // --- Work -----------------------------------------------------------
    double flops = 0.0;           ///< useful FP operations
    double dramReadBytes = 0.0;   ///< off-chip reads after caching
    double dramWriteBytes = 0.0;
    double l2AccessBytes = 0.0;   ///< total L2-level traffic (hits+misses)
    double sharedBytes = 0.0;     ///< shared-memory traffic
    /**
     * Weight-matrix share of dramReadBytes (the U/W streaming traffic
     * after the cache model). Batched lowering charges it once per
     * kernel regardless of the batch dimension, so the serving layer
     * can report weight bytes amortised per sequence.
     */
    double dramWeightBytes = 0.0;
    /**
     * Weight elements this kernel dequantizes in-register (0 for fp32
     * weights). The energy model charges an int->fp convert per
     * element (GpuConfig::dequantPjPerWeight) — the compute-side price
     * of the DRAM bytes quantization saves.
     */
    double quantWeightElems = 0.0;

    // --- Traffic attribution (DESIGN.md §13) ------------------------------
    // Named sub-streams of dram{Read,Write}Bytes. The ledger charges the
    // remainder to activations, so each must stay a subset of the total:
    // the conservation tests reject any lowering change that breaks this.
    /// which matrix dramWeightBytes belongs to
    WeightStream weightStream = WeightStream::None;
    /// per-row fp32 scale stream of a quantized matrix: the scale-
    /// stream share *inside* dramWeightBytes (which keeps its existing
    /// codes-plus-scales meaning for the serve amortisation report)
    double dramScaleBytes = 0.0;
    /// CRM relevance-flag traffic (fused flag writes / flag reads)
    double dramCrmMetaBytes = 0.0;
    /// L2-capacity spill traffic (element-wise state round trips)
    double dramSpillBytes = 0.0;
    /// residency-overflow re-streaming: the share of dramWeightBytes a
    /// persistent kernel re-fetches beyond the compulsory first pass
    /// because the quantized matrix overflowed the pinned budget
    double dramResidencyReloadBytes = 0.0;

    // --- Persistent residency (Appleyard-style persistent kernels) -------
    /// on-chip tier the weights stay resident in across the sequence
    WeightResidency residency = WeightResidency::None;
    /// bytes pinned in that tier (<= the residency capacity); the SM
    /// model converts this into an occupancy-loss factor
    double residencyPinnedBytes = 0.0;

    // --- Behaviour --------------------------------------------------------
    unsigned syncsPerCta = 0;
    /**
     * Issue-slot inflation from branch divergence: 1.0 = converged. The
     * pure-software DRS of Section VI-B2 pays ~2x here because trivial-
     * and non-trivial-row threads take different paths inside a warp.
     */
    double divergenceFactor = 1.0;
    /**
     * DRAM-transaction inflation from uncoalesced access: 1.0 = fully
     * coalesced. Element-level zero-pruning pays heavily here.
     */
    double coalescingFactor = 1.0;

    // --- Provenance (observability; -1 = not applicable) ------------------
    /// network layer this kernel belongs to
    int layer = -1;
    /// timestep / first cell covered within the layer
    int timestep = -1;
    /// tissue index within the layer (inter-cell flow only)
    int tissue = -1;

    // --- Row-skip plumbing (Section V-B hardware design) -----------------
    /// Kernel carries the trivial-row list R as an extra argument; the
    /// GMU routes such kernels through the CTA-reorganization module.
    bool hasRowSkipArg = false;
    /// Thread slots that would be disabled by the skip list.
    unsigned disabledThreads = 0;

    unsigned totalThreads() const { return ctas * threadsPerCta; }
};

/** One launch of a stored kernel, with the provenance it runs under. */
struct KernelLaunch
{
    /// index into KernelTrace::kernels()
    std::uint32_t kernel = 0;
    /// timestep / first cell covered within the layer
    int timestep = -1;
    /// tissue index within the layer (inter-cell flow only)
    int tissue = -1;
};

/**
 * A dependency-ordered kernel sequence for one inference. A layer's
 * per-step and per-tissue kernels are one launch repeated, and the
 * launches of a layer interleave (U_o, lstm_ew, U_o, ...), so the trace
 * stores each distinct descriptor once (kernels(): layer stamped,
 * timestep and tissue -1) and the launch order as indices into it
 * (launches()). The simulator times each stored kernel once.
 *
 * size(), operator[] and iteration address the launches, each expanded
 * into its descriptor with the launch's provenance stamped; they copy a
 * descriptor per launch and serve emitters and tests.
 */
class KernelTrace
{
  public:
    /** Input iterator over the expanded launches. */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = KernelDesc;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = KernelDesc;

        const_iterator(const KernelTrace *trace, std::size_t i)
            : trace_(trace), i_(i)
        {}
        KernelDesc operator*() const { return (*trace_)[i_]; }
        const_iterator &operator++()
        {
            ++i_;
            return *this;
        }
        const_iterator operator++(int)
        {
            const_iterator prev = *this;
            ++i_;
            return prev;
        }
        bool operator==(const const_iterator &) const = default;

      private:
        const KernelTrace *trace_ = nullptr;
        std::size_t i_ = 0;
    };

    KernelTrace() = default;
    /** Each descriptor stored as its own kernel and launched once, with
     *  its own timestep and tissue as the launch's provenance. */
    KernelTrace(std::initializer_list<KernelDesc> launches);

    /** Store a kernel (its timestep and tissue reset to -1); returns
     *  the index launch() takes. */
    std::size_t add(KernelDesc desc);
    /** Append one launch of stored kernel @p kernel. */
    void launch(std::size_t kernel, int timestep = -1, int tissue = -1);
    /** Capacity for @p launches launches. */
    void reserve(std::size_t launches) { launches_.reserve(launches); }

    const std::vector<KernelDesc> &kernels() const { return kernels_; }
    const std::vector<KernelLaunch> &launches() const { return launches_; }

    /** Number of launches. */
    std::size_t size() const { return launches_.size(); }
    /** Launch @p i: its stored kernel with the launch's provenance. */
    KernelDesc operator[](std::size_t i) const;
    KernelDesc back() const { return (*this)[size() - 1]; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    std::vector<KernelDesc> kernels_;
    std::vector<KernelLaunch> launches_;
};

} // namespace gpu
} // namespace mflstm

#endif // MFLSTM_GPU_KERNEL_HH
