#include "nn/lstm.hh"

#include <cassert>

#include "tensor/activations.hh"

namespace mflstm {
namespace nn {

using tensor::hardSigmoid;
using tensor::sigmoid;

LstmLayerParams::LstmLayerParams(std::size_t input_size,
                                 std::size_t hidden_size)
    : wf(hidden_size, input_size), wi(hidden_size, input_size),
      wc(hidden_size, input_size), wo(hidden_size, input_size),
      uf(hidden_size, hidden_size), ui(hidden_size, hidden_size),
      uc(hidden_size, hidden_size), uo(hidden_size, hidden_size),
      bf(hidden_size), bi(hidden_size), bc(hidden_size), bo(hidden_size)
{}

void
LstmLayerParams::init(tensor::Rng &rng)
{
    const std::size_t in = inputSize();
    const std::size_t hid = hiddenSize();

    for (Matrix *w : {&wf, &wi, &wc, &wo})
        rng.fillXavier(*w, in, hid);
    for (Matrix *u : {&uf, &ui, &uc, &uo})
        rng.fillXavier(*u, hid, hid);

    // The standard forget-gate bias of 1 keeps early-training gradients
    // flowing; it also biases f_t toward the insensitive area, which is
    // exactly the structure the inter-cell analysis exploits.
    for (std::size_t j = 0; j < hid; ++j)
        bf[j] = 1.0f;
}

Matrix
projectInputs(const LstmLayerParams &p, const std::vector<Vector> &xs)
{
    const tensor::PanelMatrix w({&p.wf, &p.wi, &p.wc, &p.wo});
    Matrix out(xs.size(), w.rows());
    for (std::size_t t = 0; t < xs.size(); ++t)
        tensor::gemv(w, xs[t].span(), out.row(t));
    return out;
}

PackedRecurrent::PackedRecurrent(const LstmLayerParams &p)
    : params(p), uFic({&p.uf, &p.ui, &p.uc}), uO(p.uo)
{}

std::size_t
lstmCellForward(const PackedRecurrent &u, std::span<const float> x_proj,
                LstmState &state, LstmStepScratch &scratch, SigmoidKind sk,
                const RowSkip &skip, LstmCellTrace *trace)
{
    const LstmLayerParams &p = u.params;
    const std::size_t hid = p.hiddenSize();
    assert(x_proj.size() == 4 * hid);
    assert(state.h.size() == hid && state.c.size() == hid);
    if (trace) {
        trace->h_prev = state.h;
        trace->c_prev = state.c;
    }

    auto sig = [sk](float v) {
        return sk == SigmoidKind::Logistic ? sigmoid(v) : hardSigmoid(v);
    };

    // Algorithm 3 lines 4-5: the output gate first. Algorithm 1 computes
    // it beside the other gates; the order changes no bit.
    Vector &o = scratch.o;
    tensor::gemv(u.uO, state.h, scratch.ro);
    o.resize(hid);
    for (std::size_t j = 0; j < hid; ++j)
        o[j] = sig(x_proj[3 * hid + j] + scratch.ro[j] + p.bo[j]);

    // Line 6: rows whose o_t element is near zero are trivial. Element j
    // masks row j of each of U_f, U_i and U_c in the fused matrix.
    std::vector<std::uint8_t> &mask = scratch.skip;
    std::size_t skipped = 0;
    if (skip.alphaIntra > 0.0) {
        mask.assign(3 * hid, 0);
        for (std::size_t j = 0; j < hid; ++j) {
            if (o[j] <= skip.alphaIntra) {
                mask[j] = mask[hid + j] = mask[2 * hid + j] = 1;
                ++skipped;
            }
        }
    }

    // Line 7 (Algorithm 1 line 4): Sgemv(U_{f,i,c}, h, R), skipped rows
    // contributing zero.
    if (skipped)
        tensor::gemvMasked(u.uFic, state.h, mask, scratch.rfic);
    else
        tensor::gemv(u.uFic, state.h, scratch.rfic);
    const float *rf = scratch.rfic.data();
    const float *ri = rf + hid;
    const float *rc = ri + hid;

    // Line 8: the element-wise kernel, c_t and h_t in place, as four
    // passes over H so that each tanh runs over a whole vector. Under the
    // default policy a skipped row's recurrent products are simply zero,
    // so its gates evaluate on the input projection alone; under
    // ZeroState the whole element is nulled (f = i = g = 0, c = h = 0).
    const bool zero_skipped =
        skipped && skip.policy == DrsStatePolicy::ZeroState;
    Vector &f = scratch.f, &i = scratch.i, &g = scratch.g;
    f.resize(hid);
    i.resize(hid);
    g.resize(hid);
    for (std::size_t j = 0; j < hid; ++j) {
        if (zero_skipped && mask[j]) {
            f[j] = i[j] = g[j] = 0.0f;
            continue;
        }
        f[j] = sig(x_proj[j] + rf[j] + p.bf[j]);
        i[j] = sig(x_proj[hid + j] + ri[j] + p.bi[j]);
        g[j] = x_proj[2 * hid + j] + rc[j] + p.bc[j];
    }
    tensor::tanh(g.span(), g.span());
    // A nulled element's c_t = 0 * c + 0 * 0 and h_t = o_t * tanh(c_t)
    // are +0, as ZeroState requires: c is finite and o_t >= +0.
    for (std::size_t j = 0; j < hid; ++j)
        state.c[j] = f[j] * state.c[j] + i[j] * g[j];
    Vector &tanh_c = scratch.tanhC;
    tanh_c.resize(hid);
    tensor::tanh(state.c.span(), tanh_c.span());
    for (std::size_t j = 0; j < hid; ++j)
        state.h[j] = o[j] * tanh_c[j];

    if (trace) {
        trace->f = f;
        trace->i = i;
        trace->g = g;
        trace->o = o;
        trace->c = state.c;
        trace->h = state.h;
    }
    return skipped;
}

std::vector<Vector>
lstmLayerForward(const LstmLayerParams &p, const Matrix &projs,
                 SigmoidKind sk, const LayerApprox &approx,
                 std::vector<LstmCellTrace> *traces,
                 std::size_t *skipped_rows)
{
    const std::size_t steps = projs.rows();
    assert(approx.breaks.empty() || approx.breaks.size() == steps);
    assert(approx.breaks.empty() || approx.link);
    const PackedRecurrent u(p);

    LstmState state(p.hiddenSize());
    LstmStepScratch scratch;
    std::vector<Vector> outputs;
    outputs.reserve(steps);
    if (traces) {
        traces->clear();
        traces->resize(steps);
    }

    std::size_t skipped = 0;
    for (std::size_t t = 0; t < steps; ++t) {
        if (!approx.breaks.empty() && approx.breaks[t]) {
            // Breakpoint: the real link is severed; substitute the
            // predicted one (Fig. 8(a2)).
            state.h = approx.link->h;
            state.c = approx.link->c;
        }
        skipped += lstmCellForward(u, projs.row(t), state, scratch, sk,
                                   approx.skip,
                                   traces ? &(*traces)[t] : nullptr);
        outputs.push_back(state.h);
    }
    if (skipped_rows)
        *skipped_rows += skipped;
    return outputs;
}

std::vector<Vector>
lstmLayerForward(const LstmLayerParams &p, const std::vector<Vector> &xs,
                 SigmoidKind sk, std::vector<LstmCellTrace> *traces)
{
    return lstmLayerForward(p, projectInputs(p, xs), sk, {}, traces);
}

} // namespace nn
} // namespace mflstm
