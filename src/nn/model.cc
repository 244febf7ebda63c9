#include "nn/model.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/parallel.hh"
#include "tensor/ops.hh"
#include "tensor/panel.hh"

namespace mflstm {
namespace nn {

void
EmbeddingParams::init(tensor::Rng &rng)
{
    rng.fillNormal(table, 0.0f, 0.1f);
}

void
LinearParams::init(tensor::Rng &rng)
{
    rng.fillXavier(w, inSize(), outSize());
    b.zero();
}

Vector
linearForward(const LinearParams &p, const Vector &x)
{
    Vector y;
    tensor::gemv(p.w, x, p.b, y);
    return y;
}

std::vector<Vector>
headLogits(const LinearParams &p, const std::vector<Vector> &hs)
{
    const tensor::PanelMatrix w(p.w);
    std::vector<Vector> logits(hs.size());
    for (std::size_t t = 0; t < hs.size(); ++t)
        tensor::gemv(w, hs[t], p.b, logits[t]);
    return logits;
}

void
softmaxInplace(std::span<float> logits)
{
    assert(!logits.empty());
    const float mx = *std::max_element(logits.begin(), logits.end());
    float sum = 0.0f;
    for (float &v : logits) {
        v = std::exp(v - mx);
        sum += v;
    }
    for (float &v : logits)
        v /= sum;
}

float
crossEntropy(std::span<const float> probs, std::size_t target)
{
    assert(target < probs.size());
    constexpr float eps = 1e-12f;
    return -std::log(std::max(probs[target], eps));
}

LstmModel::LstmModel(const ModelConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), embedding_(cfg.vocab, cfg.embedSize),
      head_(cfg.hiddenSize, cfg.headClasses())
{
    if (cfg.vocab == 0 || cfg.embedSize == 0 || cfg.hiddenSize == 0 ||
        cfg.numLayers == 0) {
        throw std::invalid_argument("LstmModel: zero dimension in config");
    }
    if (cfg.task == TaskKind::Classification && cfg.numClasses < 2)
        throw std::invalid_argument("LstmModel: need >= 2 classes");

    tensor::Rng rng(seed);
    embedding_.init(rng);
    layers_.reserve(cfg.numLayers);
    for (std::size_t l = 0; l < cfg.numLayers; ++l) {
        const std::size_t in = l == 0 ? cfg.embedSize : cfg.hiddenSize;
        layers_.emplace_back(in, cfg.hiddenSize);
        layers_.back().init(rng);
    }
    head_.init(rng);
}

std::vector<Vector>
LstmModel::embed(std::span<const std::int32_t> tokens) const
{
    std::vector<Vector> out;
    out.reserve(tokens.size());
    for (std::int32_t tok : tokens) {
        if (tok < 0 || static_cast<std::size_t>(tok) >= cfg_.vocab)
            throw std::out_of_range("LstmModel::embed: token out of vocab");
        Vector v(cfg_.embedSize);
        const auto row = embedding_.table.row(static_cast<std::size_t>(tok));
        std::copy(row.begin(), row.end(), v.begin());
        out.push_back(std::move(v));
    }
    return out;
}

std::vector<Vector>
LstmModel::runLayers(const std::vector<Vector> &inputs,
                     std::vector<std::vector<LstmCellTrace>> *traces) const
{
    if (traces) {
        traces->clear();
        traces->resize(layers_.size());
    }

    std::vector<Vector> acts;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        acts = lstmLayerForward(layers_[l], l == 0 ? inputs : acts,
                                cfg_.sigmoid,
                                traces ? &(*traces)[l] : nullptr);
    }
    return acts;
}

Vector
LstmModel::classify(std::span<const std::int32_t> tokens) const
{
    assert(cfg_.task == TaskKind::Classification);
    if (tokens.empty())
        throw std::invalid_argument("LstmModel::classify: empty sequence");
    const std::vector<Vector> top = runLayers(embed(tokens));
    return linearForward(head_, top.back());
}

std::vector<Vector>
LstmModel::lmLogits(std::span<const std::int32_t> tokens) const
{
    assert(cfg_.task == TaskKind::LanguageModel);
    const std::vector<Vector> top = runLayers(embed(tokens));
    return headLogits(head_, top);
}

std::size_t
LstmModel::parameterCount() const
{
    std::size_t n = embedding_.table.size();
    for (const LstmLayerParams &p : layers_) {
        n += p.wf.size() * 4 + p.uf.size() * 4 + p.bf.size() * 4;
    }
    n += head_.w.size() + head_.b.size();
    return n;
}

double
classificationAccuracy(const std::vector<Sample> &data, std::size_t workers,
                       const ClassifyFn &classify)
{
    if (data.empty())
        return 0.0;
    const HitCount sum = countHits(
        data.size(), workers, [&](std::size_t w, std::size_t i) {
            const Vector logits = classify(w, data[i].tokens);
            return HitCount{tensor::argmax(logits.span()) ==
                                static_cast<std::size_t>(data[i].label),
                            1};
        });
    return static_cast<double>(sum.correct) /
           static_cast<double>(sum.total);
}

double
lmNextTokenAccuracy(const std::vector<std::vector<std::int32_t>> &seqs,
                    std::size_t workers, const LmLogitsFn &lm_logits)
{
    const HitCount sum = countHits(
        seqs.size(), workers, [&](std::size_t w, std::size_t i) {
            const std::vector<std::int32_t> &seq = seqs[i];
            HitCount h;
            if (seq.size() < 2)
                return h;
            const auto logits =
                lm_logits(w, std::span(seq.data(), seq.size() - 1));
            for (std::size_t t = 0; t < logits.size(); ++t) {
                if (tensor::argmax(logits[t].span()) ==
                    static_cast<std::size_t>(seq[t + 1])) {
                    ++h.correct;
                }
                ++h.total;
            }
            return h;
        });
    return sum.total ? static_cast<double>(sum.correct) /
                           static_cast<double>(sum.total)
                     : 0.0;
}

double
classificationAccuracy(const LstmModel &model,
                       const std::vector<Sample> &data)
{
    return classificationAccuracy(
        data, sequenceWorkers(data.size()),
        [&](std::size_t, std::span<const std::int32_t> tokens) {
            return model.classify(tokens);
        });
}

double
lmNextTokenAccuracy(const LstmModel &model,
                    const std::vector<std::vector<std::int32_t>> &seqs)
{
    return lmNextTokenAccuracy(
        seqs, sequenceWorkers(seqs.size()),
        [&](std::size_t, std::span<const std::int32_t> tokens) {
            return model.lmLogits(tokens);
        });
}

} // namespace nn
} // namespace mflstm
