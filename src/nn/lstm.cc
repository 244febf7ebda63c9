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
LstmLayerParams::unitedU() const
{
    return tensor::vconcat({&uf, &ui, &uc, &uo});
}

Matrix
LstmLayerParams::unitedW() const
{
    return tensor::vconcat({&wf, &wi, &wc, &wo});
}

Vector
LstmLayerParams::unitedBias() const
{
    const std::size_t hid = hiddenSize();
    Vector out(4 * hid);
    const Vector *parts[] = {&bf, &bi, &bc, &bo};
    for (std::size_t p = 0; p < 4; ++p)
        for (std::size_t j = 0; j < hid; ++j)
            out[p * hid + j] = (*parts[p])[j];
    return out;
}

std::vector<Vector>
projectInputs(const LstmLayerParams &p, const std::vector<Vector> &xs)
{
    const tensor::PanelMatrix w({&p.wf, &p.wi, &p.wc, &p.wo});
    std::vector<Vector> out;
    out.reserve(xs.size());
    for (const Vector &x : xs) {
        Vector proj;
        tensor::gemv(w, x, proj);
        out.push_back(std::move(proj));
    }
    return out;
}

PackedRecurrent::PackedRecurrent(const LstmLayerParams &p)
    : params(p), uFic({&p.uf, &p.ui, &p.uc}), uO(p.uo)
{}

LstmState
lstmCellForward(const PackedRecurrent &u, const Vector &x_proj,
                const LstmState &prev, SigmoidKind sk, LstmCellTrace *trace)
{
    const LstmLayerParams &p = u.params;
    const std::size_t hid = p.hiddenSize();
    assert(x_proj.size() == 4 * hid);
    assert(prev.h.size() == hid && prev.c.size() == hid);

    // Recurrent projections U_* h_{t-1}: the per-cell Sgemv of
    // Algorithm 1 line 4, as the fused U_{f,i,c} and U_o products the
    // DRS cell also runs.
    Vector rfic, ro;
    tensor::gemv(u.uFic, prev.h, rfic);
    tensor::gemv(u.uO, prev.h, ro);
    const float *rf = rfic.data();
    const float *ri = rf + hid;
    const float *rc = ri + hid;

    auto sig = [sk](float v) {
        return sk == SigmoidKind::Logistic ? sigmoid(v) : hardSigmoid(v);
    };

    LstmState next(hid);
    Vector f(hid), i(hid), g(hid), o(hid);
    for (std::size_t j = 0; j < hid; ++j) {
        f[j] = sig(x_proj[j] + rf[j] + p.bf[j]);
        i[j] = sig(x_proj[hid + j] + ri[j] + p.bi[j]);
        g[j] = std::tanh(x_proj[2 * hid + j] + rc[j] + p.bc[j]);
        o[j] = sig(x_proj[3 * hid + j] + ro[j] + p.bo[j]);
        next.c[j] = f[j] * prev.c[j] + i[j] * g[j];
        next.h[j] = o[j] * std::tanh(next.c[j]);
    }

    if (trace) {
        trace->f = std::move(f);
        trace->i = std::move(i);
        trace->g = std::move(g);
        trace->o = std::move(o);
        trace->c = next.c;
        trace->h = next.h;
        trace->c_prev = prev.c;
        trace->h_prev = prev.h;
    }
    return next;
}

std::vector<Vector>
lstmLayerForward(const LstmLayerParams &p, const std::vector<Vector> &xs,
                 SigmoidKind sk, std::vector<LstmCellTrace> *traces)
{
    const std::vector<Vector> projs = projectInputs(p, xs);
    const PackedRecurrent u(p);

    LstmState state(p.hiddenSize());
    std::vector<Vector> outputs;
    outputs.reserve(xs.size());
    if (traces) {
        traces->clear();
        traces->resize(xs.size());
    }

    for (std::size_t t = 0; t < projs.size(); ++t) {
        state = lstmCellForward(u, projs[t], state, sk,
                                traces ? &(*traces)[t] : nullptr);
        outputs.push_back(state.h);
    }
    return outputs;
}

} // namespace nn
} // namespace mflstm
