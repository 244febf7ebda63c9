/**
 * @file
 * Traffic-attribution ledger (DESIGN.md §13). Every simulated DRAM byte
 * is attributed to a node in a
 *
 *     layer × matrix {W, U, bias, scale-stream}
 *           × kernel × cause {weight, dequant, activation,
 *                             CRM-metadata, spill, residency-reload}
 *
 * tree, with a hard conservation invariant: the attributed bytes of a
 * run must sum to exactly the DRAM total the timing model charged. The
 * invariant exists because of a real bug class — PR 5's CRM
 * double-count silently inflated the reported uplift and was only found
 * by hand-auditing byte totals; a conservation-checked ledger turns
 * that whole class into a test failure.
 *
 * The ledger is deliberately decoupled from the gpu layer (which
 * depends on obs): the simulator flattens each kernel launch into a
 * TrafficSample whose named sub-streams (weight, scale, CRM metadata,
 * spill) carry the same coalescing inflation the timing model applied.
 * Two invariants are enforced:
 *
 *  1. Per-sample decomposition: named sub-streams must fit inside the
 *     sample's total; the residual is attributed to activations and a
 *     negative residual (a double-count) is recorded as a violation.
 *  2. Whole-run conservation: attributedDramBytes() accumulates each
 *     sample's total in record order — the same left-to-right order the
 *     simulator sums TraceResult::dramBytes — so equality against the
 *     trace total is bit-exact, not approximate.
 *
 * Thread safety: record() and every accessor take the internal mutex,
 * so one ledger can observe concurrent Simulator instances (ordering
 * across threads is then arbitrary; bit-exact conservation holds per
 * single-threaded run, which is how the profiler drives it).
 */

#ifndef MFLSTM_OBS_LEDGER_HH
#define MFLSTM_OBS_LEDGER_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace mflstm {
namespace obs {

/** Why a byte crossed the bus. */
enum class TrafficCause : std::uint8_t {
    Weight,       ///< W/U matrix codes streamed from DRAM
    Dequant,      ///< per-row scale stream of a quantized matrix
    Activation,   ///< inputs, h/c vectors, gate outputs
    CrmMetadata,  ///< relevance-flag bytes the CRM dataflow writes
    Spill,        ///< L2-capacity spills (element-wise state traffic)
    ResidencyReload,  ///< persistent-kernel weight overflow re-streamed
                      ///< because the pinned budget could not hold it
};

/** Which matrix stream a weight byte belongs to. */
enum class MatrixStream : std::uint8_t {
    None,         ///< not a matrix stream (activations, metadata)
    W,            ///< input projection W_{f,i,c,o}
    U,            ///< recurrent U_{f,i,c,o}
    Bias,         ///< biases (never streamed today; schema completeness)
    ScaleStream,  ///< fp32 per-row scales of a quantized matrix
};

const char *toString(TrafficCause c);
const char *toString(MatrixStream m);

/**
 * One kernel launch, flattened for attribution. All byte fields carry
 * the coalescing inflation the timing model applied, so they live in
 * the same unit as TraceResult::dramBytes.
 */
struct TrafficSample
{
    int layer = -1;
    MatrixStream matrix = MatrixStream::None;
    std::string kernel;       ///< lowered kernel name
    std::string kernelClass;  ///< Sgemm / Sgemv / ElementWise / ...

    /// total DRAM bytes the timing model charged for this launch
    double totalDramBytes = 0.0;
    /// named sub-streams; each a subset of totalDramBytes
    double weightBytes = 0.0;   ///< matrix codes (scales excluded)
    double scaleBytes = 0.0;    ///< per-row scale stream
    double crmMetaBytes = 0.0;  ///< relevance-flag traffic
    double spillBytes = 0.0;    ///< L2-spill traffic
    /// residency-overflow weight bytes a persistent kernel re-streamed
    double residencyReloadBytes = 0.0;

    /// wall (simulated) time and bottleneck class, for the kernel view
    double timeUs = 0.0;
    std::string bottleneck;  ///< bandwidth|occupancy|dequant-issue|...
};

class TrafficLedger
{
  public:
    /** One cell of the attribution tree. */
    struct NodeKey
    {
        int layer = -1;
        MatrixStream matrix = MatrixStream::None;
        std::string kernel;
        TrafficCause cause = TrafficCause::Activation;

        bool operator<(const NodeKey &rhs) const
        {
            return std::tie(layer, matrix, kernel, cause) <
                   std::tie(rhs.layer, rhs.matrix, rhs.kernel, rhs.cause);
        }
        bool operator==(const NodeKey &rhs) const
        {
            return std::tie(layer, matrix, kernel, cause) ==
                   std::tie(rhs.layer, rhs.matrix, rhs.kernel, rhs.cause);
        }
    };

    /** Per-(layer, kernel) timing/bottleneck aggregation. */
    struct KernelKey
    {
        int layer = -1;
        std::string kernel;

        bool operator<(const KernelKey &rhs) const
        {
            return std::tie(layer, kernel) <
                   std::tie(rhs.layer, rhs.kernel);
        }
    };
    struct KernelStats
    {
        std::size_t launches = 0;
        double timeUs = 0.0;
        double dramBytes = 0.0;
        /// bottleneck class -> launches bound by it
        std::map<std::string, std::size_t> bottlenecks;
    };

    /** Attribute one kernel launch. Never throws; a decomposition that
     *  does not fit its total is reported by verifyConservation(). */
    void record(const TrafficSample &s);

    /** Samples recorded so far. */
    std::size_t samples() const;

    /**
     * Sum of every sample's totalDramBytes, accumulated in record
     * order. For a single-threaded run this is bit-identical to the
     * simulator's TraceResult::dramBytes accumulation.
     */
    double attributedDramBytes() const;

    /** Snapshot of the attribution tree (bytes per node). */
    std::map<NodeKey, double> traffic() const;

    /** Snapshot of the per-kernel timing/bottleneck view. */
    std::map<KernelKey, KernelStats> kernels() const;

    /**
     * The conservation check: returns every violated invariant as a
     * human-readable error, or an empty vector when
     *  - attributedDramBytes() == @p trace_dram_bytes bit-exactly,
     *  - no per-sample decomposition violation was recorded, and
     *  - the tree's node sum matches the attributed total to within
     *    floating-point reassociation error (1 part in 1e9).
     */
    std::vector<std::string>
    verifyConservation(double trace_dram_bytes) const;

  private:
    mutable std::mutex mu_;
    std::map<NodeKey, double> traffic_;
    std::map<KernelKey, KernelStats> kernels_;
    std::vector<std::string> violations_;
    double attributedTotal_ = 0.0;
    std::size_t samples_ = 0;
};

} // namespace obs
} // namespace mflstm

#endif // MFLSTM_OBS_LEDGER_HH
