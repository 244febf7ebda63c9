/**
 * @file
 * End-to-end LSTM models for the paper's NLP application classes: an
 * embedding front-end, a stack of LSTM layers, and either a
 * classification head (SC / QA / ET tasks of Table II) or a per-step
 * language-model head (LM / MT tasks). These models are the accuracy-side
 * substrate — the role PyTorch plays in the paper's methodology.
 */

#ifndef MFLSTM_NN_MODEL_HH
#define MFLSTM_NN_MODEL_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nn/lstm.hh"
#include "tensor/rng.hh"

namespace mflstm {
namespace nn {

/** Token-embedding table (vocab x embed). */
struct EmbeddingParams
{
    EmbeddingParams() = default;
    EmbeddingParams(std::size_t vocab, std::size_t embed_size)
        : table(vocab, embed_size)
    {}

    std::size_t vocab() const { return table.rows(); }
    std::size_t embedSize() const { return table.cols(); }

    void init(tensor::Rng &rng);

    Matrix table;
};

/** Affine output head (out x in weights, out bias). */
struct LinearParams
{
    LinearParams() = default;
    LinearParams(std::size_t in, std::size_t out) : w(out, in), b(out) {}

    std::size_t inSize() const { return w.cols(); }
    std::size_t outSize() const { return w.rows(); }

    void init(tensor::Rng &rng);

    Matrix w;
    Vector b;
};

/** y = W x + b. */
Vector linearForward(const LinearParams &p, const Vector &x);

/**
 * linearForward over every step of a sequence, with the head packed once
 * for the panel GEMV: the per-step LM head.
 */
std::vector<Vector> headLogits(const LinearParams &p,
                               const std::vector<Vector> &hs);

/** Numerically stable in-place softmax. */
void softmaxInplace(std::span<float> logits);

/** Cross-entropy of a probability vector against a target index. */
float crossEntropy(std::span<const float> probs, std::size_t target);

/** The two output structures the Table II applications need. */
enum class TaskKind {
    Classification,  ///< one label per sequence (SC, QA, ET)
    LanguageModel,   ///< next-token prediction per step (LM, MT)
};

/** Shape and task of a model. */
struct ModelConfig
{
    TaskKind task = TaskKind::Classification;
    std::size_t vocab = 0;
    std::size_t embedSize = 0;
    std::size_t hiddenSize = 0;
    std::size_t numLayers = 1;
    std::size_t numClasses = 0;  ///< classes; ignored for LanguageModel
    SigmoidKind sigmoid = SigmoidKind::Logistic;

    std::size_t headClasses() const
    {
        return task == TaskKind::LanguageModel ? vocab : numClasses;
    }
};

/** One labelled sequence (classification tasks). */
struct Sample
{
    std::vector<std::int32_t> tokens;
    std::int32_t label = 0;
};

/**
 * Embedding + LSTM stack + head. The layer parameters are public through
 * accessors because the approximation passes of src/core operate on them
 * directly (they re-drive the forward pass with modified dataflow).
 */
class LstmModel
{
  public:
    LstmModel(const ModelConfig &cfg, std::uint64_t seed);

    const ModelConfig &config() const { return cfg_; }

    std::vector<LstmLayerParams> &layers() { return layers_; }
    const std::vector<LstmLayerParams> &layers() const { return layers_; }

    EmbeddingParams &embedding() { return embedding_; }
    const EmbeddingParams &embedding() const { return embedding_; }

    LinearParams &head() { return head_; }
    const LinearParams &head() const { return head_; }

    /** Look up embeddings for a token sequence. */
    std::vector<Vector> embed(std::span<const std::int32_t> tokens) const;

    /**
     * Run the LSTM stack over already-embedded inputs. Returns the top
     * layer's h_t sequence. When @p traces is non-null it receives one
     * trace vector per layer.
     */
    std::vector<Vector>
    runLayers(const std::vector<Vector> &inputs,
              std::vector<std::vector<LstmCellTrace>> *traces
                  = nullptr) const;

    /** Classification logits for a token sequence (uses the last h_t). */
    Vector classify(std::span<const std::int32_t> tokens) const;

    /** Per-step next-token logits for a language-model sequence. */
    std::vector<Vector>
    lmLogits(std::span<const std::int32_t> tokens) const;

  private:
    ModelConfig cfg_;
    EmbeddingParams embedding_;
    std::vector<LstmLayerParams> layers_;
    LinearParams head_;
};

/** Classification logits of one sequence, computed by worker w. */
using ClassifyFn =
    std::function<Vector(std::size_t w, std::span<const std::int32_t>)>;

/** Per-step next-token logits of one sequence, computed by worker w. */
using LmLogitsFn = std::function<std::vector<Vector>(
    std::size_t w, std::span<const std::int32_t>)>;

/**
 * Fraction of samples whose logits' argmax is their label: the scoring
 * loop of every classification accuracy. The samples run on up to
 * @p workers threads (nn/parallel.hh), each call passing its worker
 * index; if one throws, the exception of the lowest failing sample
 * propagates. 0 for no samples.
 */
double classificationAccuracy(const std::vector<Sample> &data,
                              std::size_t workers,
                              const ClassifyFn &classify);

/**
 * Fraction of correctly predicted next tokens over all steps, scored as
 * classificationAccuracy scores samples; sequences shorter than two
 * tokens are skipped. 0 when nothing is predicted.
 */
double lmNextTokenAccuracy(const std::vector<std::vector<std::int32_t>>
                               &seqs,
                           std::size_t workers,
                           const LmLogitsFn &lm_logits);

/** Fraction of correctly classified samples, on every hardware thread. */
double classificationAccuracy(const LstmModel &model,
                              const std::vector<Sample> &data);

/** Fraction of correctly predicted next tokens over all steps. */
double lmNextTokenAccuracy(const LstmModel &model,
                           const std::vector<std::vector<std::int32_t>>
                               &seqs);

} // namespace nn
} // namespace mflstm

#endif // MFLSTM_NN_MODEL_HH
