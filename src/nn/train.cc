#include "nn/train.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <random>

#include "tensor/activations.hh"
#include "tensor/ops.hh"
#include "tensor/panel.hh"

namespace mflstm {
namespace nn {

namespace {

/** d(sigmoid)/dz from the cached output, respecting the gate variant. */
float
gateGrad(SigmoidKind sk, float s)
{
    if (sk == SigmoidKind::Logistic)
        return tensor::sigmoidGradFromOutput(s);
    // Hard sigmoid: slope 0.25 strictly inside the clamp, 0 at the rails.
    return (s > 0.0f && s < 1.0f) ? 0.25f : 0.0f;
}

} // anonymous namespace

LstmLayerGrads::LstmLayerGrads(std::size_t input_size,
                               std::size_t hidden_size)
    : wf(hidden_size, input_size), wi(hidden_size, input_size),
      wc(hidden_size, input_size), wo(hidden_size, input_size),
      uf(hidden_size, hidden_size), ui(hidden_size, hidden_size),
      uc(hidden_size, hidden_size), uo(hidden_size, hidden_size),
      bf(hidden_size), bi(hidden_size), bc(hidden_size), bo(hidden_size)
{}

void
LstmLayerGrads::zero()
{
    for (Matrix *m : {&wf, &wi, &wc, &wo, &uf, &ui, &uc, &uo})
        m->zero();
    for (Vector *v : {&bf, &bi, &bc, &bo})
        v->zero();
}

ModelGrads::ModelGrads(const LstmModel &model)
    : embedding(model.embedding().table.rows(),
                model.embedding().table.cols()),
      headW(model.head().w.rows(), model.head().w.cols()),
      headB(model.head().b.size())
{
    for (const LstmLayerParams &p : model.layers())
        layers.emplace_back(p.inputSize(), p.hiddenSize());
}

void
ModelGrads::zero()
{
    embedding.zero();
    for (LstmLayerGrads &g : layers)
        g.zero();
    headW.zero();
    headB.zero();
}

Trainer::Trainer(LstmModel &model, const TrainConfig &cfg)
    : model_(model), cfg_(cfg), grads_(model)
{
    registerAll();
}

void
Trainer::registerPair(float *param, float *grad, std::size_t n, bool decay)
{
    slots_.push_back({param, grad, n, m_.size(), decay});
    m_.resize(m_.size() + n, 0.0);
    v_.resize(v_.size() + n, 0.0);
}

void
Trainer::registerAll()
{
    registerPair(model_.embedding().table.data(), grads_.embedding.data(),
                 grads_.embedding.size());

    for (std::size_t l = 0; l < model_.layers().size(); ++l) {
        LstmLayerParams &p = model_.layers()[l];
        LstmLayerGrads &g = grads_.layers[l];
        Matrix *pm[] = {&p.wf, &p.wi, &p.wc, &p.wo,
                        &p.uf, &p.ui, &p.uc, &p.uo};
        Matrix *gm[] = {&g.wf, &g.wi, &g.wc, &g.wo,
                        &g.uf, &g.ui, &g.uc, &g.uo};
        for (int k = 0; k < 8; ++k) {
            // Recurrent matrices (the last four) carry the decay.
            registerPair(pm[k]->data(), gm[k]->data(), gm[k]->size(),
                         k >= 4);
        }
        Vector *pv[] = {&p.bf, &p.bi, &p.bc, &p.bo};
        Vector *gv[] = {&g.bf, &g.bi, &g.bc, &g.bo};
        for (int k = 0; k < 4; ++k)
            registerPair(pv[k]->data(), gv[k]->data(), gv[k]->size());
    }

    registerPair(model_.head().w.data(), grads_.headW.data(),
                 grads_.headW.size());
    registerPair(model_.head().b.data(), grads_.headB.data(),
                 grads_.headB.size());
}

double
Trainer::gradNorm() const
{
    double acc = 0.0;
    for (const Slot &s : slots_)
        for (std::size_t i = 0; i < s.size; ++i)
            acc += static_cast<double>(s.grad[i]) * s.grad[i];
    return std::sqrt(acc);
}

void
Trainer::scaleGrads(double factor)
{
    for (const Slot &s : slots_)
        for (std::size_t i = 0; i < s.size; ++i)
            s.grad[i] = static_cast<float>(s.grad[i] * factor);
}

void
Trainer::applyAdam()
{
    if (cfg_.clipNorm > 0.0) {
        const double norm = gradNorm();
        if (norm > cfg_.clipNorm)
            scaleGrads(cfg_.clipNorm / norm);
    }

    ++step_;
    const double bc1 = 1.0 - std::pow(cfg_.beta1,
                                      static_cast<double>(step_));
    const double bc2 = 1.0 - std::pow(cfg_.beta2,
                                      static_cast<double>(step_));

    for (const Slot &s : slots_) {
        for (std::size_t i = 0; i < s.size; ++i) {
            const double g = s.grad[i];
            double &m = m_[s.momentOffset + i];
            double &v = v_[s.momentOffset + i];
            m = cfg_.beta1 * m + (1.0 - cfg_.beta1) * g;
            v = cfg_.beta2 * v + (1.0 - cfg_.beta2) * g * g;
            const double mhat = m / bc1;
            const double vhat = v / bc2;
            const double decay =
                s.decay ? cfg_.recurrentDecay * s.param[i] : 0.0;
            s.param[i] -= static_cast<float>(
                cfg_.lr *
                (mhat / (std::sqrt(vhat) + cfg_.epsilon) + decay));
        }
    }
}

double
Trainer::computeGradients(const std::vector<std::int32_t> &tokens,
                          std::int32_t label, bool language_model)
{
    const std::size_t seq = language_model ? tokens.size() - 1
                                           : tokens.size();
    assert(seq >= 1);
    const std::size_t num_layers = model_.layers().size();
    const SigmoidKind sk = model_.config().sigmoid;

    grads_.zero();

    // ---- Forward with caches ----------------------------------------
    // layer_inputs[l] feeds layer l; layer_inputs[num_layers] is the top.
    std::vector<std::vector<Vector>> layer_inputs(num_layers + 1);
    std::vector<std::vector<LstmCellTrace>> traces(num_layers);

    layer_inputs[0] =
        model_.embed(std::span(tokens.data(), seq));
    for (std::size_t l = 0; l < num_layers; ++l) {
        layer_inputs[l + 1] = lstmLayerForward(
            model_.layers()[l], layer_inputs[l], sk, &traces[l]);
    }
    const std::vector<Vector> &top = layer_inputs[num_layers];

    // ---- Head loss + gradient seeding -------------------------------
    const std::size_t hid = model_.config().hiddenSize;
    std::vector<Vector> dh_out(seq, Vector(hid));
    double loss = 0.0;
    std::size_t loss_terms = 0;

    const tensor::PanelMatrix head_w(model_.head().w);
    auto seed_step = [&](std::size_t t, std::size_t target) {
        Vector logits;
        tensor::gemv(head_w, top[t], model_.head().b, logits);
        softmaxInplace(logits.span());
        loss += crossEntropy(logits.span(), target);
        ++loss_terms;

        // dL/dlogits = p - onehot(target)
        logits[target] -= 1.0f;
        tensor::ger(1.0f, logits, top[t], grads_.headW);
        for (std::size_t k = 0; k < logits.size(); ++k)
            grads_.headB[k] += logits[k];
        Vector dh;
        tensor::gemvT(model_.head().w, logits, dh);
        tensor::add(dh_out[t].span(), dh.span(), dh_out[t].span());
    };

    if (language_model) {
        for (std::size_t t = 0; t < seq; ++t)
            seed_step(t, static_cast<std::size_t>(tokens[t + 1]));
    } else {
        seed_step(seq - 1, static_cast<std::size_t>(label));
    }

    // ---- Backward through the stack ----------------------------------
    for (std::size_t li = num_layers; li-- > 0;) {
        const LstmLayerParams &p = model_.layers()[li];
        LstmLayerGrads &g = grads_.layers[li];
        const std::size_t in_size = p.inputSize();

        std::vector<Vector> dx(seq, Vector(in_size));
        Vector dh_next(hid);
        Vector dc_next(hid);
        Vector tanh_c(hid);

        for (std::size_t t = seq; t-- > 0;) {
            const LstmCellTrace &tr = traces[li][t];
            Vector dzf(hid), dzi(hid), dzc(hid), dzo(hid);
            Vector dc(hid);

            tensor::tanh(tr.c.span(), tanh_c.span());
            for (std::size_t j = 0; j < hid; ++j) {
                const float dh = dh_out[t][j] + dh_next[j];
                const float tc = tanh_c[j];
                const float do_ = dh * tc;
                dzo[j] = do_ * gateGrad(sk, tr.o[j]);
                dc[j] = dc_next[j] + dh * tr.o[j] * (1.0f - tc * tc);
                dzf[j] = dc[j] * tr.c_prev[j] * gateGrad(sk, tr.f[j]);
                dzi[j] = dc[j] * tr.g[j] * gateGrad(sk, tr.i[j]);
                dzc[j] = dc[j] * tr.i[j] *
                         tensor::tanhGradFromOutput(tr.g[j]);
                dc_next[j] = dc[j] * tr.f[j];
            }

            // Parameter gradients.
            tensor::ger(1.0f, dzf, tr.h_prev, g.uf);
            tensor::ger(1.0f, dzi, tr.h_prev, g.ui);
            tensor::ger(1.0f, dzc, tr.h_prev, g.uc);
            tensor::ger(1.0f, dzo, tr.h_prev, g.uo);
            const Vector &x = layer_inputs[li][t];
            tensor::ger(1.0f, dzf, x, g.wf);
            tensor::ger(1.0f, dzi, x, g.wi);
            tensor::ger(1.0f, dzc, x, g.wc);
            tensor::ger(1.0f, dzo, x, g.wo);
            for (std::size_t j = 0; j < hid; ++j) {
                g.bf[j] += dzf[j];
                g.bi[j] += dzi[j];
                g.bc[j] += dzc[j];
                g.bo[j] += dzo[j];
            }

            // Upstream gradients.
            Vector tmp;
            dh_next.zero();
            tensor::gemvT(p.uf, dzf, tmp);
            tensor::add(dh_next.span(), tmp.span(), dh_next.span());
            tensor::gemvT(p.ui, dzi, tmp);
            tensor::add(dh_next.span(), tmp.span(), dh_next.span());
            tensor::gemvT(p.uc, dzc, tmp);
            tensor::add(dh_next.span(), tmp.span(), dh_next.span());
            tensor::gemvT(p.uo, dzo, tmp);
            tensor::add(dh_next.span(), tmp.span(), dh_next.span());

            tensor::gemvT(p.wf, dzf, tmp);
            tensor::add(dx[t].span(), tmp.span(), dx[t].span());
            tensor::gemvT(p.wi, dzi, tmp);
            tensor::add(dx[t].span(), tmp.span(), dx[t].span());
            tensor::gemvT(p.wc, dzc, tmp);
            tensor::add(dx[t].span(), tmp.span(), dx[t].span());
            tensor::gemvT(p.wo, dzo, tmp);
            tensor::add(dx[t].span(), tmp.span(), dx[t].span());
        }

        if (li > 0) {
            dh_out = std::move(dx);
        } else {
            // Embedding gradient: scatter-add dx into the token rows.
            for (std::size_t t = 0; t < seq; ++t) {
                const auto tok = static_cast<std::size_t>(tokens[t]);
                auto row = grads_.embedding.row(tok);
                for (std::size_t k = 0; k < row.size(); ++k)
                    row[k] += dx[t][k];
            }
        }
    }

    return loss_terms ? loss / static_cast<double>(loss_terms) : 0.0;
}

double
Trainer::stepClassification(const Sample &sample)
{
    assert(model_.config().task == TaskKind::Classification);
    const double loss = computeGradients(sample.tokens, sample.label,
                                         false);
    applyAdam();
    return loss;
}

double
Trainer::stepLanguageModel(const std::vector<std::int32_t> &seq)
{
    assert(model_.config().task == TaskKind::LanguageModel);
    assert(seq.size() >= 2);
    const double loss = computeGradients(seq, 0, true);
    applyAdam();
    return loss;
}

double
Trainer::trainClassification(const std::vector<Sample> &data,
                             std::size_t epochs)
{
    std::mt19937_64 shuffler(cfg_.shuffleSeed);
    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);

    double last = 0.0;
    for (std::size_t e = 0; e < epochs; ++e) {
        std::shuffle(order.begin(), order.end(), shuffler);
        double acc = 0.0;
        for (std::size_t idx : order)
            acc += stepClassification(data[idx]);
        last = data.empty() ? 0.0
                            : acc / static_cast<double>(data.size());
    }
    return last;
}

double
Trainer::trainLanguageModel(
    const std::vector<std::vector<std::int32_t>> &seqs, std::size_t epochs)
{
    std::mt19937_64 shuffler(cfg_.shuffleSeed);
    std::vector<std::size_t> order(seqs.size());
    std::iota(order.begin(), order.end(), 0);

    double last = 0.0;
    for (std::size_t e = 0; e < epochs; ++e) {
        std::shuffle(order.begin(), order.end(), shuffler);
        double acc = 0.0;
        for (std::size_t idx : order)
            acc += stepLanguageModel(seqs[idx]);
        last = seqs.empty() ? 0.0
                            : acc / static_cast<double>(seqs.size());
    }
    return last;
}

} // namespace nn
} // namespace mflstm
