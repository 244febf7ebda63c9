/**
 * @file
 * LSTM cell and layer forward pass implementing Eq. 1-5 of the paper
 * and the approximations of Section V (Algorithm 3's row skip, broken
 * context links): the one cell step and the one layer loop of every host
 * forward, with the gate-level tracing hooks that the BPTT trainer and
 * the calibration passes need. The heavyweight matrix products follow the cuDNN decomposition of
 * Section II-C: a per-layer Sgemm over the inputs (W x_t for all t) and a
 * per-cell Sgemv over the recurrent state (U h_{t-1}).
 */

#ifndef MFLSTM_NN_LSTM_HH
#define MFLSTM_NN_LSTM_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hh"
#include "tensor/panel.hh"
#include "tensor/rng.hh"

namespace mflstm {
namespace nn {

using tensor::Matrix;
using tensor::Vector;

/** Which sigmoid variant the gates use (Section IV-A, Fig. 7). */
enum class SigmoidKind { Logistic, Hard };

/**
 * Parameters of one LSTM layer: four input projections W_* (hidden x
 * input), four recurrent projections U_* (hidden x hidden) and four
 * biases b_* — the f/i/c/o order of the paper throughout.
 */
struct LstmLayerParams
{
    LstmLayerParams() = default;
    LstmLayerParams(std::size_t input_size, std::size_t hidden_size);

    std::size_t inputSize() const { return wf.cols(); }
    std::size_t hiddenSize() const { return wf.rows(); }

    /** Xavier-initialise weights; biases zero except forget bias = 1. */
    void init(tensor::Rng &rng);

    Matrix wf, wi, wc, wo;
    Matrix uf, ui, uc, uo;
    Vector bf, bi, bc, bo;
};

/** Recurrent state threaded between cells: (h_{t-1}, c_{t-1}). */
struct LstmState
{
    LstmState() = default;
    explicit LstmState(std::size_t hidden_size)
        : h(hidden_size), c(hidden_size)
    {}

    Vector h;
    Vector c;
};

/**
 * Everything one cell computed, cached for BPTT and for the gate
 * statistics the approximation passes consume. `x_proj` holds the four
 * pre-activation input projections W_* x_t + b_* in f/i/c/o order.
 */
struct LstmCellTrace
{
    Vector f;       ///< forget gate, Eq. 1
    Vector i;       ///< input gate, Eq. 2
    Vector g;       ///< candidate tanh(...) inside Eq. 3
    Vector o;       ///< output gate, Eq. 4
    Vector c;       ///< new cell state, Eq. 3
    Vector h;       ///< new output, Eq. 5
    Vector c_prev;  ///< cell state entering this cell
    Vector h_prev;  ///< output entering this cell (the context link)
};

/**
 * Precomputed input projections for one layer: the result of the
 * per-layer Sgemm(W_{f,i,c,o}, x) in Algorithm 1 line 2. Row t holds the
 * four H-sized chunks W_* x_t (no bias) for timestep t, concatenated
 * (4H). W is packed for the panel GEMV (tensor/panel.hh) once per call.
 */
Matrix projectInputs(const LstmLayerParams &p, const std::vector<Vector> &xs);

/**
 * What a cell step reads, packed for the panel GEMV: the fused recurrent
 * U_{f,i,c} that DRS row-skips and U_o, which Algorithm 3 evaluates
 * first. Packed once per layer forward call and shared by all its
 * timesteps, never stored with the model (DESIGN.md §18). Biases are
 * read from @p params, which must outlive the packing.
 */
struct PackedRecurrent
{
    explicit PackedRecurrent(const LstmLayerParams &p);

    const LstmLayerParams &params;
    tensor::PanelMatrix uFic;  ///< U_{f,i,c}, 3H x H
    tensor::PanelMatrix uO;    ///< U_o, H x H
};

/**
 * What a DRS-skipped row means for the cell state. Algorithm 3 row-skips
 * only the Sgemv(U_{f,i,c}, h, R) kernel; the element-wise kernel of
 * line 8 carries no R argument, so the faithful reading (the default) is
 * that a skipped row merely loses its recurrent contribution
 * U_* h_{t-1} while the gate still evaluates on the input projection.
 * Section V-A's prose alternatively describes the affected c_t elements
 * as "approximated to zero"; ZeroState implements that harsher variant
 * (kept for the ablation study in bench_ablation).
 */
enum class DrsStatePolicy {
    DropRecurrent,  ///< skipped rows: gates see W x_t + b only (default)
    ZeroState,      ///< skipped rows: c_t (and hence h_t) forced to 0
};

/**
 * Algorithm 3's row skip (DRS): element j with o_t[j] <= alphaIntra
 * skips row j of U_f, U_i and U_c. alphaIntra = 0 skips nothing and
 * runs Algorithm 1's plain Sgemv.
 */
struct RowSkip
{
    double alphaIntra = 0.0;
    DrsStatePolicy policy = DrsStatePolicy::DropRecurrent;
};

/**
 * The buffers a cell step works in, owned by the caller and reused
 * across timesteps: the recurrent products, o_t and the skip mask. The
 * step resizes them, so any scratch fits any hidden size.
 */
struct LstmStepScratch
{
    Vector ro;    ///< U_o h_{t-1}
    Vector rfic;  ///< U_{f,i,c} h_{t-1}, skipped rows 0
    Vector o;     ///< output gate o_t
    std::vector<std::uint8_t> skip;  ///< DRS row mask over U_{f,i,c}
};

/**
 * One LSTM cell step (Eq. 1-5), with Algorithm 3's row skip when
 * skip.alphaIntra > 0. @p state holds (h_{t-1}, c_{t-1}) on entry and
 * (h_t, c_t) on return. @param x_proj is the 4H projection W_{f,i,c,o}
 * x_t (no bias). Allocates nothing unless @p trace is set. Returns the
 * number of skipped rows (of the hidden size).
 */
std::size_t lstmCellForward(const PackedRecurrent &u,
                            std::span<const float> x_proj,
                            LstmState &state, LstmStepScratch &scratch,
                            SigmoidKind sk = SigmoidKind::Logistic,
                            const RowSkip &skip = {},
                            LstmCellTrace *trace = nullptr);

/**
 * The approximations a layer forward applies (Section V); the default
 * runs Algorithm 1 exactly.
 */
struct LayerApprox
{
    RowSkip skip;  ///< intra-cell DRS
    /// per step, or empty: 1 where the link into step t is broken
    std::span<const std::uint8_t> breaks = {};
    /// the (h, c) a broken link is replaced with (Eq. 6, Fig. 8(a2))
    const LstmState *link = nullptr;
};

/**
 * Full-layer forward over precomputed projections (projectInputs):
 * chains the cells over one packing of the recurrent weights and one
 * set of step buffers. Returns h_t for every timestep.
 *
 * @param traces        when non-null, receives one LstmCellTrace per
 *                      timestep.
 * @param skipped_rows  when non-null, the skipped rows are added to it.
 */
std::vector<Vector> lstmLayerForward(const LstmLayerParams &p,
                                     const Matrix &projs, SigmoidKind sk,
                                     const LayerApprox &approx = {},
                                     std::vector<LstmCellTrace> *traces
                                         = nullptr,
                                     std::size_t *skipped_rows = nullptr);

/** Exact full-layer forward: projectInputs, then the loop above. */
std::vector<Vector> lstmLayerForward(const LstmLayerParams &p,
                                     const std::vector<Vector> &xs,
                                     SigmoidKind sk = SigmoidKind::Logistic,
                                     std::vector<LstmCellTrace> *traces
                                         = nullptr);

} // namespace nn
} // namespace mflstm

#endif // MFLSTM_NN_LSTM_HH
