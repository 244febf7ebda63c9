/**
 * @file
 * Functional (accuracy-side) implementation of the paper's two
 * approximations, mirroring what the paper implements in PyTorch:
 *
 *  - inter-cell: per sequence and per layer, compute the link relevance
 *    values (Algorithm 2) from the input projections, break links weaker
 *    than alpha_inter, and substitute the predicted context link (Eq. 6)
 *    at every breakpoint;
 *
 *  - intra-cell DRS: per cell, compute the output gate o_t first; for
 *    elements with o_t <= alpha_intra, skip the corresponding rows of
 *    U_{f,i,c} (Section V-A; nn::RowSkip, nn::DrsStatePolicy).
 *
 * The ApproxRunner drives a trained nn::LstmModel through these modified
 * dataflows — the cells run in nn::lstmLayerForward, the one layer loop
 * of every host forward — and records the division/skip statistics that
 * the timing planner (core/planner.hh) turns into an ExecutionPlan.
 */

#ifndef MFLSTM_CORE_APPROX_HH
#define MFLSTM_CORE_APPROX_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/predictor.hh"
#include "core/relevance.hh"
#include "nn/model.hh"
#include "quant/qformat.hh"

namespace mflstm {
namespace core {

/** Aggregated approximation statistics for one layer. */
struct LayerApproxStats
{
    std::size_t sequences = 0;   ///< forward passes observed
    std::size_t links = 0;       ///< breakable links seen
    std::size_t breaks = 0;      ///< links actually broken
    std::size_t cells = 0;       ///< cells executed
    double skippedRows = 0.0;    ///< DRS-skipped rows (of hidden size)

    /** Fraction of links broken by alpha_inter. */
    double breakRate() const
    {
        return links ? static_cast<double>(breaks) /
                           static_cast<double>(links)
                     : 0.0;
    }

    /** Mean fraction of U_{f,i,c} rows skipped per cell. */
    double skipFraction(std::size_t hidden_size) const
    {
        return cells ? skippedRows / (static_cast<double>(cells) *
                                      static_cast<double>(hidden_size))
                     : 0.0;
    }

    /** Mean sub-layer count per sequence. */
    double avgSubLayers() const
    {
        return sequences ? 1.0 + static_cast<double>(breaks) /
                                     static_cast<double>(sequences)
                         : 1.0;
    }

    /** Add another tally. Every field is a count (skippedRows a whole
     *  number below 2^53), so sums are exact in any order. */
    LayerApproxStats &operator+=(const LayerApproxStats &o)
    {
        sequences += o.sequences;
        links += o.links;
        breaks += o.breaks;
        cells += o.cells;
        skippedRows += o.skippedRows;
        return *this;
    }
};

/**
 * Runs a trained model with the approximations enabled and collects the
 * statistics the timing side needs. The const forwards (the overloads
 * that take a caller-owned stats vector) may run concurrently on one
 * runner, each thread with its own stats vector; calls that mutate the
 * runner, including the forwards that add to stats(), may not overlap
 * any other call.
 */
class ApproxRunner
{
  public:
    explicit ApproxRunner(const nn::LstmModel &model);

    /**
     * Exact-forward profile of the model on a dataset: the pooled link
     * relevance values S (all layers) and the output-gate magnitude
     * distribution. These define the meaningful ranges of the two
     * thresholds (Fig. 10, offline op 2).
     */
    struct CalibrationProfile
    {
        std::vector<double> relevances;  ///< pooled S, sorted ascending
        /// per-layer S values, sorted ascending (division is per layer)
        std::vector<std::vector<double>> layerRelevances;
        std::vector<float> outputGates;  ///< pooled o_t values, sorted

        /// fraction of layer l's links with S < alpha
        double layerBreakFraction(std::size_t l, double alpha) const;

        /** S quantile: the alpha_inter that breaks fraction q of links. */
        double relevanceQuantile(double q) const;

        /** o_t quantile: the alpha_intra that skips fraction q of rows. */
        double outputGateQuantile(double q) const;
    };

    /**
     * Offline calibration (Fig. 10 ops 2 and 4), one exact forward per
     * sequence: add every context link (h_t, c_t) to the per-layer
     * Eq. 6 predictors and return the threshold profile of these
     * sequences. Empty sequences are skipped. The sequences run on
     * every hardware thread (nn/parallel.hh); the predictor counts and
     * the profile equal a serial scan's bit for bit.
     */
    CalibrationProfile
    calibrate(const std::vector<std::vector<std::int32_t>> &token_seqs);

    /** Has calibrate() ingested at least one sequence? */
    bool calibrated() const;

    /**
     * Set the two thresholds. alpha_inter = 0 disables layer division;
     * alpha_intra = 0 disables DRS (o_t is strictly positive).
     */
    void setThresholds(double alpha_inter, double alpha_intra);

    double alphaInter() const { return alphaInter_; }
    double alphaIntra() const { return alphaIntra_; }

    /** Select the DRS skipped-row semantics (see nn::DrsStatePolicy). */
    void setDrsPolicy(nn::DrsStatePolicy policy) { drsPolicy_ = policy; }
    nn::DrsStatePolicy drsPolicy() const { return drsPolicy_; }

    /**
     * Set the weight precision of the served model (DESIGN.md §12).
     * A non-fp32 mode swaps the forward passes onto a fake-quantized
     * copy of the model (bit-identical to running the in-register
     * dequant kernels of tensor/qmatrix.hh) and rebuilds the relevance
     * contexts from the quantized rows; Fp32 restores the original.
     * Calibration is expected to happen at fp32 before a quantized
     * mode is selected (the facade orders it that way).
     */
    void setQuantMode(quant::QuantMode mode);
    quant::QuantMode quantMode() const { return quantMode_; }

    /** The model the forward passes actually run (fake-quantized or
     *  the fp32 original). */
    const nn::LstmModel &activeModel() const
    {
        return qmodel_ ? *qmodel_ : model_;
    }

    /**
     * Approximate stack forward over embedded inputs, adding this
     * sequence's statistics to @p stats (one entry per layer).
     */
    std::vector<Vector> runLayers(const std::vector<Vector> &inputs,
                                  std::vector<LayerApproxStats> &stats) const;

    /**
     * Approximate classification logits (cf. LstmModel::classify).
     * @throws std::invalid_argument on an empty sequence.
     */
    Vector classify(std::span<const std::int32_t> tokens,
                    std::vector<LayerApproxStats> &stats) const;

    /** Approximate per-step LM logits (cf. LstmModel::lmLogits). */
    std::vector<Vector>
    lmLogits(std::span<const std::int32_t> tokens,
             std::vector<LayerApproxStats> &stats) const;

    /** The forwards above, adding to stats(). */
    std::vector<Vector> runLayers(const std::vector<Vector> &inputs)
    {
        return runLayers(inputs, stats_);
    }
    Vector classify(std::span<const std::int32_t> tokens)
    {
        return classify(tokens, stats_);
    }
    std::vector<Vector> lmLogits(std::span<const std::int32_t> tokens)
    {
        return lmLogits(tokens, stats_);
    }

    const std::vector<LayerApproxStats> &stats() const { return stats_; }
    void resetStats();

    /** Add per-layer tallies (e.g. one worker's) into stats(). */
    void addStats(const std::vector<LayerApproxStats> &more);

    /** Per-layer link predictors (persistence export). */
    const std::vector<LinkPredictor> &predictors() const
    {
        return predictors_;
    }

    /**
     * Replace the link predictors (persistence restore): one per layer,
     * each of the model's hidden size.
     * @throws std::invalid_argument on a layer-count or width mismatch.
     */
    void restorePredictors(std::vector<LinkPredictor> predictors);

    const nn::LstmModel &model() const { return model_; }

  private:
    void rebuildRelevanceContexts();
    /** Recompute predicted_ from predictors_. */
    void refreshPredictions();

    const nn::LstmModel &model_;
    /// fake-quantized serving copy; engaged iff quantMode_ != Fp32
    std::optional<nn::LstmModel> qmodel_;
    std::vector<LayerRelevanceContext> relevanceCtx_;
    std::vector<LinkPredictor> predictors_;
    /// per-layer Eq. 6 predicted (h, c), computed whenever predictors_
    /// change rather than from the histograms on every sequence
    std::vector<nn::LstmState> predicted_;
    std::vector<LayerApproxStats> stats_;
    double alphaInter_ = 0.0;
    double alphaIntra_ = 0.0;
    quant::QuantMode quantMode_ = quant::QuantMode::Fp32;
    nn::DrsStatePolicy drsPolicy_ = nn::DrsStatePolicy::DropRecurrent;
};

/**
 * classificationAccuracy through the approximate dataflow. The samples
 * run on every hardware thread (nn/parallel.hh); accuracy and the
 * statistics added to runner.stats() equal a serial classify() loop bit
 * for bit. If a forward throws (an empty sequence), the exception of
 * the lowest failing sample propagates and runner.stats() is unchanged.
 */
double approxClassificationAccuracy(ApproxRunner &runner,
                                    const std::vector<nn::Sample> &data);

/** lmNextTokenAccuracy through the approximate dataflow; sequences run
 *  in parallel as in approxClassificationAccuracy. */
double approxLmNextTokenAccuracy(
    ApproxRunner &runner,
    const std::vector<std::vector<std::int32_t>> &seqs);

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_APPROX_HH
