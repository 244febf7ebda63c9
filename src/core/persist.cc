#include "core/persist.hh"

namespace mflstm {
namespace core {

namespace {

using io::ArtifactError;
using io::ErrorKind;

constexpr std::uint32_t kCalibrationSchemaVersion = 1;
constexpr std::uint32_t kChunkFingerprint = io::fourcc('C', 'F', 'P', 'R');
constexpr std::uint32_t kChunkCalibration = io::fourcc('C', 'C', 'A', 'L');

std::uint32_t
predictorHTag(std::size_t l)
{
    return io::indexedTag('P', 'H', l);
}

std::uint32_t
predictorCTag(std::size_t l)
{
    return io::indexedTag('P', 'C', l);
}

/** The dimensions half of the fingerprint. */
struct ModelFingerprint
{
    std::uint32_t task = 0;
    std::uint64_t vocab = 0;
    std::uint64_t embedSize = 0;
    std::uint64_t hiddenSize = 0;
    std::uint64_t numLayers = 0;
    std::uint64_t numClasses = 0;
    std::uint32_t sigmoid = 0;
    std::uint32_t weightsCrc = 0;

    bool operator==(const ModelFingerprint &) const = default;
};

template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, ModelFingerprint> fp)
{
    c(fp.task, fp.vocab, fp.embedSize, fp.hiddenSize, fp.numLayers,
      fp.numClasses, fp.sigmoid, fp.weightsCrc);
}

ModelFingerprint
fingerprintOf(const nn::LstmModel &model)
{
    const nn::ModelConfig &cfg = model.config();
    ModelFingerprint fp;
    fp.task = static_cast<std::uint32_t>(cfg.task);
    fp.vocab = cfg.vocab;
    fp.embedSize = cfg.embedSize;
    fp.hiddenSize = cfg.hiddenSize;
    fp.numLayers = cfg.numLayers;
    fp.numClasses = cfg.numClasses;
    fp.sigmoid = static_cast<std::uint32_t>(cfg.sigmoid);
    fp.weightsCrc = modelWeightsCrc(model);
    return fp;
}

ModelFingerprint
readFingerprint(const io::ArtifactReader &reader)
{
    io::ByteReader r = reader.chunk(kChunkFingerprint);
    ModelFingerprint fp;
    fields(r, fp);
    r.expectEnd();
    return fp;
}

/**
 * One link predictor's histograms as stored: every element shares the
 * bin layout (bins over [lo, hi]); counts is dim x bins, row-major.
 */
struct StoredDistribution
{
    std::uint64_t dim = 0;
    std::uint64_t bins = 0;
    double lo = 0.0;
    double hi = 0.0;
    std::vector<std::uint64_t> counts;

    bool sameLayout(const StoredDistribution &o) const
    {
        return dim == o.dim && bins == o.bins && lo == o.lo && hi == o.hi;
    }
};

template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, StoredDistribution> d)
{
    c(d.dim, d.bins, d.lo, d.hi, d.counts);
}

/** @p dist's bin layout, without its counts. */
StoredDistribution
layoutOf(const tensor::VectorDistribution &dist)
{
    StoredDistribution d;
    d.dim = dist.dim();
    if (d.dim) {
        d.bins = dist.element(0).bins();
        d.lo = dist.element(0).lo();
        d.hi = dist.element(0).hi();
    }
    return d;
}

StoredDistribution
storedOf(const tensor::VectorDistribution &dist)
{
    StoredDistribution d = layoutOf(dist);
    d.counts.reserve(d.dim * d.bins);
    for (std::size_t i = 0; i < d.dim; ++i)
        for (std::size_t b = 0; b < d.bins; ++b)
            d.counts.push_back(dist.element(i).binCount(b));
    return d;
}

/** The structural decode of one predictor chunk (no live model). */
StoredDistribution
readDistribution(const io::ArtifactReader &reader, std::uint32_t tag)
{
    io::ByteReader r = reader.chunk(tag);
    StoredDistribution d;
    fields(r, d);
    r.expectEnd();
    if (d.counts.size() != io::checkedMul(d.dim, d.bins, "predictor"))
        r.fail(ErrorKind::Malformed, "count array has the wrong length");
    return d;
}

/** readDistribution, whose layout must match the live @p dist. */
std::vector<std::uint64_t>
readCounts(const io::ArtifactReader &reader, std::uint32_t tag,
           const tensor::VectorDistribution &dist, const std::string &path)
{
    StoredDistribution d = readDistribution(reader, tag);
    if (!d.sameLayout(layoutOf(dist)))
        throw ArtifactError(ErrorKind::Stale,
                            "loadCalibration: " + path +
                                ": histogram shape does not match this "
                                "model");
    return std::move(d.counts);
}

void
applyDistribution(tensor::VectorDistribution &dist,
                  const std::vector<std::uint64_t> &counts)
{
    const std::size_t bins = dist.dim() ? dist.element(0).bins() : 0;
    for (std::size_t i = 0; i < dist.dim(); ++i)
        dist.restoreElementCounts(
            i, std::span<const std::uint64_t>(counts)
                   .subspan(i * bins, bins));
}

template <typename Codec>
void
fields(Codec &c, io::FieldRef<Codec, MemoryFriendlyLstm::Calibration> cal)
{
    c(cal.mts, cal.mtsSweep.mts, cal.mtsSweep.timesUs,
      cal.mtsSweep.sharedUtilization, cal.limits.maxInter,
      cal.limits.maxIntra, cal.limits.maxBreakFraction,
      cal.limits.maxSkipFraction, cal.profile.relevances,
      cal.profile.layerRelevances, cal.profile.outputGates);
}

MemoryFriendlyLstm::Calibration
readCalibration(const io::ArtifactReader &reader)
{
    io::ByteReader r = reader.chunk(kChunkCalibration);
    MemoryFriendlyLstm::Calibration cal;
    fields(r, cal);
    r.expectEnd();
    if (cal.mts == 0)
        r.fail(ErrorKind::Malformed, "mts = 0");
    return cal;
}

} // anonymous namespace

std::uint32_t
modelWeightsCrc(const nn::LstmModel &model)
{
    // Embedding, per-layer W/U/b, then the head. Calibration, warm-state
    // and tuned-plan artifacts all store this value, so changing the
    // byte order makes every existing artifact Stale.
    std::uint32_t crc = 0;
    const auto feed = [&](const float *data, std::size_t n) {
        crc = io::crc32(data, n * sizeof(float), crc);
    };
    feed(model.embedding().table.data(), model.embedding().table.size());
    for (const nn::LstmLayerParams &p : model.layers()) {
        for (const tensor::Matrix *m :
             {&p.wf, &p.wi, &p.wc, &p.wo, &p.uf, &p.ui, &p.uc, &p.uo})
            feed(m->data(), m->size());
        for (const tensor::Vector *v : {&p.bf, &p.bi, &p.bc, &p.bo})
            feed(v->data(), v->size());
    }
    feed(model.head().w.data(), model.head().w.size());
    feed(model.head().b.data(), model.head().b.size());
    return crc;
}

void
saveCalibration(const MemoryFriendlyLstm &mf, const std::string &path)
{
    const ApproxRunner &runner = mf.runner();

    io::ArtifactWriter w(io::kSchemaCalibration,
                         kCalibrationSchemaVersion);
    fields(w.chunk(kChunkFingerprint), fingerprintOf(runner.model()));
    fields(w.chunk(kChunkCalibration), mf.calibration());
    for (std::size_t l = 0; l < runner.predictors().size(); ++l) {
        const LinkPredictor &p = runner.predictors()[l];
        fields(w.chunk(predictorHTag(l)), storedOf(p.hDistribution()));
        fields(w.chunk(predictorCTag(l)), storedOf(p.cDistribution()));
    }
    w.commit(path);
}

void
loadCalibration(MemoryFriendlyLstm &mf, const std::string &path,
                const io::ArtifactLimits &limits, obs::Observer *obs)
{
    try {
        const io::ArtifactReader reader(path, io::kSchemaCalibration,
                                        kCalibrationSchemaVersion,
                                        limits);
        ApproxRunner &runner = mf.runner();
        if (readFingerprint(reader) != fingerprintOf(runner.model()))
            throw ArtifactError(
                ErrorKind::Stale,
                "loadCalibration: " + path +
                    ": calibration belongs to a different model "
                    "(fingerprint mismatch)");
        const MemoryFriendlyLstm::Calibration cal =
            readCalibration(reader);

        // Parse + validate every predictor payload before mutating the
        // runner, so a failure cannot leave it half-restored.
        std::vector<LinkPredictor> predictors = runner.predictors();
        std::vector<std::vector<std::uint64_t>> h_counts, c_counts;
        for (std::size_t l = 0; l < predictors.size(); ++l) {
            h_counts.push_back(readCounts(reader, predictorHTag(l),
                                          predictors[l].hDistribution(),
                                          path));
            c_counts.push_back(readCounts(reader, predictorCTag(l),
                                          predictors[l].cDistribution(),
                                          path));
        }
        for (std::size_t l = 0; l < predictors.size(); ++l) {
            applyDistribution(predictors[l].hDistribution(), h_counts[l]);
            applyDistribution(predictors[l].cDistribution(), c_counts[l]);
        }
        runner.restorePredictors(std::move(predictors));
        mf.restoreCalibration(cal);
    } catch (const ArtifactError &e) {
        io::recordRejection(obs, e.kind());
        throw;
    }
}

void
verifyCalibrationFile(const std::string &path,
                      const io::ArtifactLimits &limits)
{
    const io::ArtifactReader reader(path, io::kSchemaCalibration,
                                    kCalibrationSchemaVersion, limits);
    const ModelFingerprint fp = readFingerprint(reader);
    (void)readCalibration(reader);

    // Every predictor chunk must parse and agree with the fingerprint's
    // layer count and hidden size.
    for (std::uint64_t l = 0; l < fp.numLayers; ++l)
        for (std::uint32_t tag : {predictorHTag(l), predictorCTag(l)})
            if (readDistribution(reader, tag).dim != fp.hiddenSize)
                throw ArtifactError(
                    ErrorKind::Malformed,
                    "verifyCalibrationFile: " + path +
                        ": predictor chunk inconsistent with "
                        "fingerprint");
}

} // namespace core
} // namespace mflstm
