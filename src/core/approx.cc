#include "core/approx.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/parallel.hh"
#include "quant/quantize.hh"
#include "tensor/stats.hh"

namespace mflstm {
namespace core {

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
    predicted_.resize(predictors_.size());
    for (std::size_t l = 0; l < predictors_.size(); ++l) {
        const Vector h = predictors_[l].predictedH();
        const Vector c = predictors_[l].predictedC();
        predicted_[l].h = h;
        predicted_[l].c = c;
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
    assert(stats.size() == m.layers().size());
    std::vector<Vector> acts;
    std::vector<std::uint8_t> is_break;

    for (std::size_t l = 0; l < m.layers().size(); ++l) {
        const nn::LstmLayerParams &p = m.layers()[l];
        const tensor::Matrix projs =
            nn::projectInputs(p, l == 0 ? inputs : acts);
        // Tallied locally and added once per layer: concurrent callers'
        // stats vectors may share a cache line.
        LayerApproxStats st;
        st.sequences = 1;
        st.cells = projs.rows();

        // Inter-cell: find the weak links of this sequence.
        is_break.assign(projs.rows(), 0);
        if (alphaInter_ > 0.0) {
            for (std::size_t t = 1; t < projs.rows(); ++t) {
                ++st.links;
                if (relevanceCtx_[l].relevance(p, projs.row(t)) <
                    alphaInter_) {
                    is_break[t] = 1;
                    ++st.breaks;
                }
            }
        }

        std::size_t skipped = 0;
        acts = nn::lstmLayerForward(
            p, projs, m.config().sigmoid,
            {{alphaIntra_, drsPolicy_}, is_break, &predicted_[l]}, nullptr,
            &skipped);
        st.skippedRows = static_cast<double>(skipped);
        stats[l] += st;
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
ApproxRunner::calibrate(
    const std::vector<std::vector<std::int32_t>> &token_seqs)
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

    const std::size_t workers = nn::sequenceWorkers(n);
    nn::forEachSequence(n, workers, [&](std::size_t, std::size_t i) {
        const std::vector<std::int32_t> &seq = token_seqs[i];
        if (seq.empty())
            return;
        double *pooled = prof.relevances.data() + layers * first_link[i];
        float *gates =
            prof.outputGates.data() + gates_per_step * first_step[i];
        std::vector<Vector> acts = m.embed(seq);
        std::vector<nn::LstmCellTrace> traces;
        for (std::size_t l = 0; l < layers; ++l) {
            const nn::LstmLayerParams &p = m.layers()[l];
            const tensor::Matrix projs = nn::projectInputs(p, acts);

            double *per_layer =
                prof.layerRelevances[l].data() + first_link[i];
            for (std::size_t t = 1; t < projs.rows(); ++t) {
                const double sv =
                    relevanceCtx_[l].relevance(p, projs.row(t));
                *pooled++ = sv;
                *per_layer++ = sv;
            }

            acts = nn::lstmLayerForward(p, projs, sk, {}, &traces);
            // Integer counts, added atomically: exact in any order.
            predictors_[l].observe(traces);
            for (const nn::LstmCellTrace &tr : traces)
                gates = std::copy(tr.o.begin(), tr.o.end(), gates);
        }
    });
    refreshPredictions();

    std::sort(prof.relevances.begin(), prof.relevances.end());
    for (auto &xs : prof.layerRelevances)
        std::sort(xs.begin(), xs.end());
    // Every o_t is a sigmoid, >= +0 and never NaN, so equal values are
    // bitwise equal and the sorted parts are std::sort's result.
    const std::vector<std::size_t> bounds =
        tensor::cutForSort(prof.outputGates, workers);
    nn::forEachSequence(workers, workers, [&](std::size_t, std::size_t k) {
        std::sort(prof.outputGates.begin() + bounds[k],
                  prof.outputGates.begin() + bounds[k + 1]);
    });
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

using WorkerStats = std::vector<std::vector<LayerApproxStats>>;

/** One zeroed stats vector per worker of an n-sequence accuracy loop. */
WorkerStats
workerStats(const ApproxRunner &runner, std::size_t n)
{
    return WorkerStats(nn::sequenceWorkers(n),
                       std::vector<LayerApproxStats>(runner.stats().size()));
}

/**
 * Add the workers' stats to the runner in worker order. Called only
 * after every sequence ran, so a throw leaves runner.stats() unchanged.
 */
void
mergeStats(ApproxRunner &runner, const WorkerStats &stats)
{
    for (const std::vector<LayerApproxStats> &s : stats)
        runner.addStats(s);
}

} // namespace

double
approxClassificationAccuracy(ApproxRunner &runner,
                             const std::vector<nn::Sample> &data)
{
    WorkerStats stats = workerStats(runner, data.size());
    const double accuracy = nn::classificationAccuracy(
        data, stats.size(),
        [&](std::size_t w, std::span<const std::int32_t> tokens) {
            return runner.classify(tokens, stats[w]);
        });
    mergeStats(runner, stats);
    return accuracy;
}

double
approxLmNextTokenAccuracy(
    ApproxRunner &runner,
    const std::vector<std::vector<std::int32_t>> &seqs)
{
    WorkerStats stats = workerStats(runner, seqs.size());
    const double accuracy = nn::lmNextTokenAccuracy(
        seqs, stats.size(),
        [&](std::size_t w, std::span<const std::int32_t> tokens) {
            return runner.lmLogits(tokens, stats[w]);
        });
    mergeStats(runner, stats);
    return accuracy;
}

} // namespace core
} // namespace mflstm
