#include "nn/serialize.hh"

#include <algorithm>
#include <cstdint>

#include "obs/observer.hh"

namespace mflstm {
namespace nn {

namespace {

using io::ArtifactError;
using io::ErrorKind;

/// the artifact container schema version and chunks
constexpr std::uint32_t kModelSchemaVersion = 2;
constexpr std::uint32_t kChunkConfig = io::fourcc('M', 'C', 'F', 'G');
constexpr std::uint32_t kChunkEmbedding = io::fourcc('M', 'E', 'M', 'B');
constexpr std::uint32_t kChunkHead = io::fourcc('M', 'H', 'E', 'D');

std::uint32_t
layerTag(std::size_t l)
{
    return io::indexedTag('L', 'Y', l);
}

/**
 * The per-allocation contract: every dimension is bounded and the
 * total parameter count fits the limits under checked arithmetic
 * BEFORE LstmModel's constructor allocates anything.
 */
void
validateConfig(const ModelConfig &cfg, const io::ArtifactLimits &limits,
               const std::string &path)
{
    const auto dim = [&](std::uint64_t v, const char *name,
                         std::uint64_t min) {
        if (v < min || v > limits.maxDim)
            throw ArtifactError(
                ErrorKind::LimitExceeded,
                "loadModel: " + path + ": " + name + " = " +
                    std::to_string(v) + " outside [" +
                    std::to_string(min) + ", " +
                    std::to_string(limits.maxDim) + "]");
    };
    dim(cfg.vocab, "vocab", 1);
    dim(cfg.embedSize, "embedSize", 1);
    dim(cfg.hiddenSize, "hiddenSize", 1);
    dim(cfg.numLayers, "numLayers", 1);
    dim(cfg.numClasses, "numClasses", 0);
    if (cfg.headClasses() == 0)
        throw ArtifactError(ErrorKind::Malformed,
                            "loadModel: " + path +
                                ": classification model with zero "
                                "classes");

    std::uint64_t total = io::checkedMul(cfg.vocab, cfg.embedSize,
                                         "embedding");
    for (std::size_t l = 0; l < cfg.numLayers; ++l) {
        const std::uint64_t input =
            l == 0 ? cfg.embedSize : cfg.hiddenSize;
        std::uint64_t layer = io::checkedMul(
            4, io::checkedMul(cfg.hiddenSize, input, "W"), "W");
        layer = io::checkedAdd(
            layer,
            io::checkedMul(
                4, io::checkedMul(cfg.hiddenSize, cfg.hiddenSize, "U"),
                "U"),
            "layer");
        layer = io::checkedAdd(
            layer, io::checkedMul(4, cfg.hiddenSize, "b"), "layer");
        total = io::checkedAdd(total, layer, "parameters");
    }
    total = io::checkedAdd(
        total,
        io::checkedMul(cfg.headClasses(), cfg.hiddenSize, "head"),
        "parameters");
    total = io::checkedAdd(total, cfg.headClasses(), "parameters");

    if (total > limits.maxElements)
        throw ArtifactError(
            ErrorKind::LimitExceeded,
            "loadModel: " + path + ": header requests " +
                std::to_string(total) + " parameters, over the " +
                std::to_string(limits.maxElements) + " element limit");
}

/** The config chunk's field list (the only non-tensor chunk). */
template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, ModelConfig> cfg)
{
    c(io::upTo<TaskKind::LanguageModel>(cfg.task), cfg.vocab,
      cfg.embedSize, cfg.hiddenSize, cfg.numLayers, cfg.numClasses,
      io::upTo<SigmoidKind::Hard>(cfg.sigmoid));
}

/** Copy a finite f32 array into @p dst (exact size match). */
void
readTensor(io::ByteReader &r, float *dst, std::size_t expected,
           const char *what)
{
    std::vector<float> v;
    r(v);
    if (v.size() != expected)
        r.fail(ErrorKind::Malformed,
               std::string(what) + " holds " + std::to_string(v.size()) +
                   " values, expected " + std::to_string(expected));
    std::copy(v.begin(), v.end(), dst);
}

LstmModel
readModel(const std::string &path, const io::ArtifactLimits &limits)
{
    const io::ArtifactReader reader(path, io::kSchemaModel,
                                    kModelSchemaVersion, limits);
    ModelConfig cfg;
    {
        io::ByteReader r = reader.chunk(kChunkConfig);
        fields(r, cfg);
        r.expectEnd();
    }
    validateConfig(cfg, limits, path);

    LstmModel model(cfg, 0);
    {
        io::ByteReader r = reader.chunk(kChunkEmbedding);
        readTensor(r, model.embedding().table.data(),
                   model.embedding().table.size(), "embedding");
        r.expectEnd();
    }
    for (std::size_t l = 0; l < cfg.numLayers; ++l) {
        io::ByteReader r = reader.chunk(layerTag(l));
        LstmLayerParams &p = model.layers()[l];
        for (tensor::Matrix *m :
             {&p.wf, &p.wi, &p.wc, &p.wo, &p.uf, &p.ui, &p.uc, &p.uo})
            readTensor(r, m->data(), m->size(), "layer matrix");
        for (tensor::Vector *v : {&p.bf, &p.bi, &p.bc, &p.bo})
            readTensor(r, v->data(), v->size(), "layer bias");
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkHead);
        readTensor(r, model.head().w.data(), model.head().w.size(),
                   "head weights");
        readTensor(r, model.head().b.data(), model.head().b.size(),
                   "head bias");
        r.expectEnd();
    }
    return model;
}

} // anonymous namespace

void
saveModel(const LstmModel &model, const std::string &path)
{
    const ModelConfig &cfg = model.config();
    io::ArtifactWriter w(io::kSchemaModel, kModelSchemaVersion);

    fields(w.chunk(kChunkConfig), cfg);

    w.chunk(kChunkEmbedding)
        .f32Array({model.embedding().table.data(),
                   model.embedding().table.size()});

    for (std::size_t l = 0; l < model.layers().size(); ++l) {
        const LstmLayerParams &p = model.layers()[l];
        io::ByteWriter &lw = w.chunk(layerTag(l));
        for (const tensor::Matrix *m :
             {&p.wf, &p.wi, &p.wc, &p.wo, &p.uf, &p.ui, &p.uc, &p.uo})
            lw.f32Array({m->data(), m->size()});
        for (const tensor::Vector *v : {&p.bf, &p.bi, &p.bc, &p.bo})
            lw.f32Array({v->data(), v->size()});
    }

    io::ByteWriter &h = w.chunk(kChunkHead);
    h.f32Array({model.head().w.data(), model.head().w.size()});
    h.f32Array({model.head().b.data(), model.head().b.size()});

    w.commit(path);
}

LstmModel
loadModel(const std::string &path, const io::ArtifactLimits &limits,
          obs::Observer *obs)
{
    try {
        return readModel(path, limits);
    } catch (const ArtifactError &e) {
        io::recordRejection(obs, e.kind());
        throw;
    }
}

void
verifyModelFile(const std::string &path,
                const io::ArtifactLimits &limits)
{
    (void)loadModel(path, limits);
}

bool
isModelFile(const std::string &path)
{
    std::uint32_t schema = 0;
    return io::isArtifactFile(path, &schema) &&
           schema == io::kSchemaModel;
}

} // namespace nn
} // namespace mflstm
