#include "core/approx.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/parallel.hh"
#include "quant/quantize.hh"
#include "tensor/activations.hh"
#include "tensor/ops.hh"
#include "tensor/panel.hh"

namespace mflstm {
namespace core {

nn::LstmState
lstmCellForwardDrs(const nn::PackedRecurrent &u, const Vector &x_proj,
                   const nn::LstmState &prev, double alpha_intra,
                   nn::SigmoidKind sk, std::size_t *skipped_rows,
                   DrsStatePolicy policy)
{
    const nn::LstmLayerParams &params = u.params;
    const std::size_t hid = params.hiddenSize();
    assert(x_proj.size() == 4 * hid);

    auto sig = [sk](float v) {
        return sk == nn::SigmoidKind::Logistic ? tensor::sigmoid(v)
                                               : tensor::hardSigmoid(v);
    };

    // Algorithm 3 lines 4-5: the output gate first.
    Vector ro;
    tensor::gemv(u.uO, prev.h, ro);
    Vector o(hid);
    for (std::size_t j = 0; j < hid; ++j)
        o[j] = sig(x_proj[3 * hid + j] + ro[j] + params.bo[j]);

    // Line 6: rows whose o_t element is near zero are trivial. Element j
    // masks row j of each of U_f, U_i and U_c in the fused matrix.
    std::vector<std::uint8_t> skip(3 * hid, 0);
    std::size_t skipped = 0;
    for (std::size_t j = 0; j < hid; ++j) {
        if (o[j] <= alpha_intra) {
            skip[j] = skip[hid + j] = skip[2 * hid + j] = 1;
            ++skipped;
        }
    }
    if (skipped_rows)
        *skipped_rows = skipped;

    // Line 7: Sgemv(U_{f,i,c}, h, R) — skipped rows contribute zero.
    Vector rfic;
    tensor::gemvMasked(u.uFic, prev.h, skip, rfic);
    const float *rf = rfic.data();
    const float *ri = rf + hid;
    const float *rc = ri + hid;

    // Line 8: the element-wise kernel. Under the default policy a
    // skipped row's recurrent products are simply zero (gemvMasked
    // already produced that), so the gates evaluate on the input
    // projection alone; under ZeroState the whole element is nulled.
    nn::LstmState next(hid);
    for (std::size_t j = 0; j < hid; ++j) {
        if (skip[j] && policy == DrsStatePolicy::ZeroState) {
            next.c[j] = 0.0f;
            next.h[j] = 0.0f;
            continue;
        }
        const float f = sig(x_proj[j] + rf[j] + params.bf[j]);
        const float i = sig(x_proj[hid + j] + ri[j] + params.bi[j]);
        const float g =
            std::tanh(x_proj[2 * hid + j] + rc[j] + params.bc[j]);
        next.c[j] = f * prev.c[j] + i * g;
        next.h[j] = o[j] * std::tanh(next.c[j]);
    }
    return next;
}

ApproxRunner::ApproxRunner(const nn::LstmModel &model) : model_(model)
{
    const std::size_t hid = model.config().hiddenSize;
    rebuildRelevanceContexts();
    for (std::size_t l = 0; l < model.layers().size(); ++l)
        predictors_.emplace_back(hid);
    refreshPredictions();
    stats_.resize(model.layers().size());
}

void
ApproxRunner::refreshPredictions()
{
    // Copy into the buffers the constructor allocated: keeping the fresh
    // expectation vectors instead would place them above the trace
    // memory calibrate() just freed, which raised the sweep-table2
    // benchmark's peak RSS by about 0.4 MB.
    predictedH_.resize(predictors_.size());
    predictedC_.resize(predictors_.size());
    for (std::size_t l = 0; l < predictors_.size(); ++l) {
        const Vector h = predictors_[l].predictedH();
        const Vector c = predictors_[l].predictedC();
        predictedH_[l] = h;
        predictedC_[l] = c;
    }
}

void
ApproxRunner::restorePredictors(std::vector<LinkPredictor> predictors)
{
    if (predictors.size() != predictors_.size())
        throw std::invalid_argument(
            "ApproxRunner::restorePredictors: layer count mismatch");
    for (std::size_t l = 0; l < predictors.size(); ++l)
        if (predictors[l].hDistribution().dim() !=
                predictors_[l].hDistribution().dim() ||
            predictors[l].cDistribution().dim() !=
                predictors_[l].cDistribution().dim())
            throw std::invalid_argument(
                "ApproxRunner::restorePredictors: width mismatch");
    predictors_ = std::move(predictors);
    refreshPredictions();
}

void
ApproxRunner::rebuildRelevanceContexts()
{
    relevanceCtx_.clear();
    relevanceCtx_.reserve(activeModel().layers().size());
    for (const nn::LstmLayerParams &p : activeModel().layers())
        relevanceCtx_.emplace_back(p);
}

void
ApproxRunner::setQuantMode(quant::QuantMode mode)
{
    if (mode == quantMode_)
        return;
    quantMode_ = mode;
    if (mode == quant::QuantMode::Fp32) {
        qmodel_.reset();
    } else {
        qmodel_ = model_;
        quant::applyFakeQuant(*qmodel_, mode);
    }
    // The relevance norms are precomputed from the weight rows, so they
    // must follow the precision of the model actually served.
    rebuildRelevanceContexts();
}

void
ApproxRunner::calibrate(
    const std::vector<std::vector<std::int32_t>> &token_seqs)
{
    for (const auto &seq : token_seqs) {
        if (seq.empty())
            continue;
        std::vector<std::vector<nn::LstmCellTrace>> traces;
        activeModel().runLayers(activeModel().embed(seq), &traces);
        for (std::size_t l = 0; l < traces.size(); ++l)
            predictors_[l].observe(traces[l]);
    }
    refreshPredictions();
}

bool
ApproxRunner::calibrated() const
{
    return !predictors_.empty() && predictors_.front().samples() > 0;
}

void
ApproxRunner::setThresholds(double alpha_inter, double alpha_intra)
{
    if (alpha_inter < 0.0 || alpha_intra < 0.0 || alpha_intra >= 1.0)
        throw std::invalid_argument("setThresholds: out of range");
    if (alpha_inter > 0.0 && !calibrated())
        throw std::logic_error(
            "setThresholds: layer division needs calibrate() first "
            "(predicted links are undefined)");
    alphaInter_ = alpha_inter;
    alphaIntra_ = alpha_intra;
}

std::vector<Vector>
ApproxRunner::runLayers(const std::vector<Vector> &inputs,
                        std::vector<LayerApproxStats> &stats) const
{
    const nn::LstmModel &m = activeModel();
    const nn::SigmoidKind sk = m.config().sigmoid;
    assert(stats.size() == m.layers().size());
    std::vector<Vector> acts = inputs;

    for (std::size_t l = 0; l < m.layers().size(); ++l) {
        const nn::LstmLayerParams &p = m.layers()[l];
        // Tallied locally and added once per layer: concurrent callers'
        // stats vectors may share a cache line.
        LayerApproxStats st;
        st.sequences = 1;

        const std::vector<Vector> projs = nn::projectInputs(p, acts);

        // Inter-cell: find the weak links of this sequence.
        std::vector<std::uint8_t> is_break(projs.size(), 0);
        if (alphaInter_ > 0.0 && projs.size() > 1) {
            for (std::size_t t = 1; t < projs.size(); ++t) {
                ++st.links;
                const double s =
                    relevanceCtx_[l].relevance(p, projs[t]);
                if (s < alphaInter_) {
                    is_break[t] = 1;
                    ++st.breaks;
                }
            }
        }

        const nn::PackedRecurrent u(p);
        nn::LstmState state(p.hiddenSize());
        std::vector<Vector> outs;
        outs.reserve(projs.size());
        for (std::size_t t = 0; t < projs.size(); ++t) {
            if (is_break[t]) {
                // Breakpoint: the real link is severed; substitute the
                // predicted one (Fig. 8(a2)).
                state.h = predictedH_[l];
                state.c = predictedC_[l];
            }
            ++st.cells;
            if (alphaIntra_ > 0.0) {
                std::size_t skipped = 0;
                state = lstmCellForwardDrs(u, projs[t], state,
                                           alphaIntra_, sk, &skipped,
                                           drsPolicy_);
                st.skippedRows += static_cast<double>(skipped);
            } else {
                state = nn::lstmCellForward(u, projs[t], state, sk);
            }
            outs.push_back(state.h);
        }
        stats[l] += st;
        acts = std::move(outs);
    }
    return acts;
}

Vector
ApproxRunner::classify(std::span<const std::int32_t> tokens,
                       std::vector<LayerApproxStats> &stats) const
{
    assert(model_.config().task == nn::TaskKind::Classification);
    if (tokens.empty())
        throw std::invalid_argument("ApproxRunner::classify: empty");
    const std::vector<Vector> top =
        runLayers(activeModel().embed(tokens), stats);
    return nn::linearForward(activeModel().head(), top.back());
}

std::vector<Vector>
ApproxRunner::lmLogits(std::span<const std::int32_t> tokens,
                       std::vector<LayerApproxStats> &stats) const
{
    assert(model_.config().task == nn::TaskKind::LanguageModel);
    const std::vector<Vector> top =
        runLayers(activeModel().embed(tokens), stats);
    return nn::headLogits(activeModel().head(), top);
}

double
ApproxRunner::CalibrationProfile::relevanceQuantile(double q) const
{
    if (relevances.empty())
        return 0.0;
    const double pos =
        std::clamp(q, 0.0, 1.0) *
        static_cast<double>(relevances.size() - 1);
    return relevances[static_cast<std::size_t>(pos)];
}

double
ApproxRunner::CalibrationProfile::outputGateQuantile(double q) const
{
    if (outputGates.empty())
        return 0.0;
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(outputGates.size() - 1);
    return outputGates[static_cast<std::size_t>(pos)];
}

double
ApproxRunner::CalibrationProfile::layerBreakFraction(std::size_t l,
                                                     double alpha) const
{
    if (l >= layerRelevances.size() || layerRelevances[l].empty())
        return 0.0;
    const auto &xs = layerRelevances[l];
    const auto it = std::lower_bound(xs.begin(), xs.end(), alpha);
    return static_cast<double>(it - xs.begin()) /
           static_cast<double>(xs.size());
}

ApproxRunner::CalibrationProfile
ApproxRunner::profile(
    const std::vector<std::vector<std::int32_t>> &token_seqs) const
{
    const nn::LstmModel &m = activeModel();
    const nn::SigmoidKind sk = m.config().sigmoid;
    const std::size_t layers = m.layers().size();
    std::size_t gates_per_step = 0;
    for (const nn::LstmLayerParams &p : m.layers())
        gates_per_step += p.hiddenSize();

    // Sequence i writes the slices a serial scan would append for it
    // (steps from first_step[i], links per layer from first_link[i]),
    // so the vectors equal the serial scan's before sorting, and no
    // worker grows a buffer of its own.
    const std::size_t n = token_seqs.size();
    std::vector<std::size_t> first_step(n + 1, 0), first_link(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = token_seqs[i].size();
        first_step[i + 1] = first_step[i] + len;
        first_link[i + 1] = first_link[i] + (len ? len - 1 : 0);
    }
    CalibrationProfile prof;
    prof.relevances.resize(layers * first_link[n]);
    prof.layerRelevances.assign(layers,
                                std::vector<double>(first_link[n]));
    prof.outputGates.resize(gates_per_step * first_step[n]);

    nn::forEachSequence(n, nn::sequenceWorkers(n),
                        [&](std::size_t, std::size_t i) {
        const std::vector<std::int32_t> &seq = token_seqs[i];
        if (seq.empty())
            return;
        double *pooled = prof.relevances.data() + layers * first_link[i];
        float *gates =
            prof.outputGates.data() + gates_per_step * first_step[i];
        std::vector<Vector> acts = m.embed(seq);
        for (std::size_t l = 0; l < layers; ++l) {
            const nn::LstmLayerParams &p = m.layers()[l];
            const std::vector<Vector> projs = nn::projectInputs(p, acts);

            double *per_layer =
                prof.layerRelevances[l].data() + first_link[i];
            for (std::size_t t = 1; t < projs.size(); ++t) {
                const double sv = relevanceCtx_[l].relevance(p, projs[t]);
                *pooled++ = sv;
                *per_layer++ = sv;
            }

            const nn::PackedRecurrent u(p);
            nn::LstmState state(p.hiddenSize());
            std::vector<Vector> outs;
            outs.reserve(projs.size());
            for (std::size_t t = 0; t < projs.size(); ++t) {
                nn::LstmCellTrace trace;
                state = nn::lstmCellForward(u, projs[t], state, sk,
                                            &trace);
                gates = std::copy(trace.o.begin(), trace.o.end(), gates);
                outs.push_back(state.h);
            }
            acts = std::move(outs);
        }
    });

    std::sort(prof.relevances.begin(), prof.relevances.end());
    for (auto &xs : prof.layerRelevances)
        std::sort(xs.begin(), xs.end());
    std::sort(prof.outputGates.begin(), prof.outputGates.end());
    return prof;
}

void
ApproxRunner::resetStats()
{
    for (LayerApproxStats &st : stats_)
        st = LayerApproxStats{};
}

void
ApproxRunner::addStats(const std::vector<LayerApproxStats> &more)
{
    assert(more.size() == stats_.size());
    for (std::size_t l = 0; l < stats_.size(); ++l)
        stats_[l] += more[l];
}

namespace {

/**
 * Sum hits(stats, i) over i < n with nn::countHits, each worker adding
 * its statistics into a stats vector of its own. Those are added to the
 * runner in worker order once every sequence ran, so a throw leaves
 * runner.stats() unchanged.
 */
template <typename Hits>
nn::HitCount
countWithStats(ApproxRunner &runner, std::size_t n, Hits &&hits)
{
    std::vector<std::vector<LayerApproxStats>> stats(
        nn::sequenceWorkers(n),
        std::vector<LayerApproxStats>(runner.stats().size()));
    const nn::HitCount sum = nn::countHits(
        n, stats.size(),
        [&](std::size_t w, std::size_t i) { return hits(stats[w], i); });
    for (const std::vector<LayerApproxStats> &s : stats)
        runner.addStats(s);
    return sum;
}

} // namespace

double
approxClassificationAccuracy(ApproxRunner &runner,
                             const std::vector<nn::Sample> &data)
{
    if (data.empty())
        return 0.0;
    const nn::HitCount sum = countWithStats(
        runner, data.size(),
        [&](std::vector<LayerApproxStats> &stats, std::size_t i) {
            const nn::Sample &s = data[i];
            const Vector logits = runner.classify(s.tokens, stats);
            return nn::HitCount{tensor::argmax(logits.span()) ==
                                    static_cast<std::size_t>(s.label),
                                1};
        });
    return static_cast<double>(sum.correct) /
           static_cast<double>(sum.total);
}

double
approxLmNextTokenAccuracy(
    ApproxRunner &runner,
    const std::vector<std::vector<std::int32_t>> &seqs)
{
    const nn::HitCount sum = countWithStats(
        runner, seqs.size(),
        [&](std::vector<LayerApproxStats> &stats, std::size_t i) {
            const std::vector<std::int32_t> &seq = seqs[i];
            nn::HitCount h;
            if (seq.size() < 2)
                return h;
            const auto logits = runner.lmLogits(
                std::span(seq.data(), seq.size() - 1), stats);
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

} // namespace core
} // namespace mflstm
