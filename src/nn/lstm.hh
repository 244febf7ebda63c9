/**
 * @file
 * LSTM cell and layer forward pass implementing Eq. 1-5 of the paper,
 * with the gate-level tracing hooks that both the BPTT trainer and the
 * paper's approximation passes (relevance analysis, Dynamic Row Skip)
 * need. The heavyweight matrix products follow the cuDNN decomposition of
 * Section II-C: a per-layer Sgemm over the inputs (W x_t for all t) and a
 * per-cell Sgemv over the recurrent state (U h_{t-1}).
 */

#ifndef MFLSTM_NN_LSTM_HH
#define MFLSTM_NN_LSTM_HH

#include <cstddef>
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

    /**
     * United recurrent matrix U_{f,i,c,o} (4H x H) as cuDNN concatenates
     * it for the per-cell Sgemv (Section II-C, circled 1).
     */
    Matrix unitedU() const;

    /** United input matrix W_{f,i,c,o} (4H x E), Section II-C circled 2. */
    Matrix unitedW() const;

    /** United bias (4H). */
    Vector unitedBias() const;

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
 * per-layer Sgemm(W_{f,i,c,o}, x) in Algorithm 1 line 2. Element t holds
 * the four H-sized chunks for timestep t, concatenated (4H). W is packed
 * for the panel GEMV (tensor/panel.hh) once per call.
 */
std::vector<Vector> projectInputs(const LstmLayerParams &p,
                                  const std::vector<Vector> &xs);

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
 * One LSTM cell step (Eq. 1-5) given the precomputed input projection for
 * this timestep. @param x_proj is the 4H vector W_{f,i,c,o} x_t (no bias).
 */
LstmState lstmCellForward(const PackedRecurrent &u, const Vector &x_proj,
                          const LstmState &prev,
                          SigmoidKind sk = SigmoidKind::Logistic,
                          LstmCellTrace *trace = nullptr);

/**
 * Full-layer forward: runs the per-layer input Sgemm, then chains the
 * cells over one packing of the recurrent weights. Returns h_t for every
 * timestep.
 *
 * @param traces  when non-null, receives one LstmCellTrace per timestep.
 */
std::vector<Vector> lstmLayerForward(const LstmLayerParams &p,
                                     const std::vector<Vector> &xs,
                                     SigmoidKind sk = SigmoidKind::Logistic,
                                     std::vector<LstmCellTrace> *traces
                                         = nullptr);

} // namespace nn
} // namespace mflstm

#endif // MFLSTM_NN_LSTM_HH
