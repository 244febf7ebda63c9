#include "core/persist.hh"

#include <cmath>

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

ModelFingerprint
fingerprintOf(const nn::LstmModel &model)
{
    const nn::ModelConfig &cfg = model.config();
    ModelFingerprint fp;
    fp.task = cfg.task == nn::TaskKind::LanguageModel ? 1 : 0;
    fp.vocab = cfg.vocab;
    fp.embedSize = cfg.embedSize;
    fp.hiddenSize = cfg.hiddenSize;
    fp.numLayers = cfg.numLayers;
    fp.numClasses = cfg.numClasses;
    fp.sigmoid = cfg.sigmoid == nn::SigmoidKind::Hard ? 1 : 0;
    fp.weightsCrc = modelWeightsCrc(model);
    return fp;
}

void
writeFingerprint(io::ByteWriter &w, const ModelFingerprint &fp)
{
    w.u32(fp.task);
    w.u64(fp.vocab);
    w.u64(fp.embedSize);
    w.u64(fp.hiddenSize);
    w.u64(fp.numLayers);
    w.u64(fp.numClasses);
    w.u32(fp.sigmoid);
    w.u32(fp.weightsCrc);
}

ModelFingerprint
readFingerprint(io::ByteReader &r)
{
    ModelFingerprint fp;
    fp.task = r.u32();
    fp.vocab = r.u64();
    fp.embedSize = r.u64();
    fp.hiddenSize = r.u64();
    fp.numLayers = r.u64();
    fp.numClasses = r.u64();
    fp.sigmoid = r.u32();
    fp.weightsCrc = r.u32();
    r.expectEnd();
    return fp;
}

void
writeDistribution(io::ByteWriter &w,
                  const tensor::VectorDistribution &dist)
{
    w.u64(dist.dim());
    const std::size_t bins = dist.dim() ? dist.element(0).bins() : 0;
    w.u64(bins);
    w.f64(dist.dim() ? dist.element(0).lo() : 0.0);
    w.f64(dist.dim() ? dist.element(0).hi() : 0.0);
    std::vector<std::uint64_t> counts;
    counts.reserve(dist.dim() * bins);
    for (std::size_t i = 0; i < dist.dim(); ++i)
        for (std::size_t b = 0; b < bins; ++b)
            counts.push_back(dist.element(i).binCount(b));
    w.u64Array(counts);
}

/** Parsed distribution payload, validated against the live @p dist. */
std::vector<std::uint64_t>
readDistribution(io::ByteReader &r, const tensor::VectorDistribution &dist,
                 const std::string &path, const char *what)
{
    const std::uint64_t dim = r.u64();
    const std::uint64_t bins = r.u64();
    const double lo = r.f64();
    const double hi = r.f64();
    const std::vector<std::uint64_t> counts = r.u64Array();
    r.expectEnd();

    const std::size_t live_bins =
        dist.dim() ? dist.element(0).bins() : 0;
    if (dim != dist.dim() || bins != live_bins ||
        lo != (dist.dim() ? dist.element(0).lo() : 0.0) ||
        hi != (dist.dim() ? dist.element(0).hi() : 0.0))
        throw ArtifactError(
            ErrorKind::Stale,
            "loadCalibration: " + path + ": " + what +
                " histogram shape does not match this model");
    if (counts.size() != io::checkedMul(dim, bins, what))
        throw ArtifactError(ErrorKind::Malformed,
                            "loadCalibration: " + path + ": " + what +
                                " count array has the wrong length");
    return counts;
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

void
writeCalibrationChunk(io::ByteWriter &w,
                      const MemoryFriendlyLstm::Calibration &cal)
{
    w.u64(cal.mts);
    w.u64(cal.mtsSweep.mts);
    w.f64Array(cal.mtsSweep.timesUs);
    w.f64Array(cal.mtsSweep.sharedUtilization);
    w.f64(cal.limits.maxInter);
    w.f64(cal.limits.maxIntra);
    w.f64(cal.limits.maxBreakFraction);
    w.f64(cal.limits.maxSkipFraction);
    w.f64Array(cal.profile.relevances);
    w.u64(cal.profile.layerRelevances.size());
    for (const std::vector<double> &lr : cal.profile.layerRelevances)
        w.f64Array(lr);
    w.f32Array(cal.profile.outputGates);
}

MemoryFriendlyLstm::Calibration
readCalibrationChunk(io::ByteReader &r, const io::ArtifactLimits &limits,
                     const std::string &path)
{
    MemoryFriendlyLstm::Calibration cal;
    cal.mts = static_cast<std::size_t>(r.u64());
    cal.mtsSweep.mts = static_cast<std::size_t>(r.u64());
    cal.mtsSweep.timesUs = r.f64Array();
    cal.mtsSweep.sharedUtilization = r.f64Array();
    cal.limits.maxInter = r.f64();
    cal.limits.maxIntra = r.f64();
    cal.limits.maxBreakFraction = r.f64();
    cal.limits.maxSkipFraction = r.f64();
    cal.profile.relevances = r.f64Array();
    const std::uint64_t layer_count = r.u64();
    if (layer_count > limits.maxDim)
        throw ArtifactError(ErrorKind::LimitExceeded,
                            "loadCalibration: " + path +
                                ": absurd layer count " +
                                std::to_string(layer_count));
    cal.profile.layerRelevances.reserve(
        static_cast<std::size_t>(layer_count));
    for (std::uint64_t l = 0; l < layer_count; ++l)
        cal.profile.layerRelevances.push_back(r.f64Array());
    cal.profile.outputGates = r.f32Array();
    r.expectEnd();

    if (cal.mts == 0)
        throw ArtifactError(ErrorKind::Malformed,
                            "loadCalibration: " + path + ": mts = 0");
    const auto finite = [&](double v, const char *what) {
        if (!std::isfinite(v))
            throw ArtifactError(ErrorKind::NonFinite,
                                "loadCalibration: " + path +
                                    ": non-finite " + what);
    };
    finite(cal.limits.maxInter, "maxInter");
    finite(cal.limits.maxIntra, "maxIntra");
    finite(cal.limits.maxBreakFraction, "maxBreakFraction");
    finite(cal.limits.maxSkipFraction, "maxSkipFraction");
    for (double v : cal.profile.relevances)
        finite(v, "relevance value");
    for (const auto &lr : cal.profile.layerRelevances)
        for (double v : lr)
            finite(v, "layer relevance value");
    for (float v : cal.profile.outputGates)
        finite(v, "output-gate value");
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
    const MemoryFriendlyLstm::Calibration &cal = mf.calibration();
    const ApproxRunner &runner = mf.runner();

    io::ArtifactWriter w(io::kSchemaCalibration,
                         kCalibrationSchemaVersion);
    writeFingerprint(w.chunk(kChunkFingerprint),
                     fingerprintOf(runner.model()));
    writeCalibrationChunk(w.chunk(kChunkCalibration), cal);
    for (std::size_t l = 0; l < runner.predictors().size(); ++l) {
        const LinkPredictor &p = runner.predictors()[l];
        writeDistribution(w.chunk(predictorHTag(l)), p.hDistribution());
        writeDistribution(w.chunk(predictorCTag(l)), p.cDistribution());
    }
    w.commit(path);
}

void
loadCalibration(MemoryFriendlyLstm &mf, const std::string &path,
                const io::ArtifactLimits &limits, obs::Observer *obs)
{
    try {
        const io::ArtifactReader reader(path, io::kSchemaCalibration,
                                        limits);
        if (reader.schemaVersion() != kCalibrationSchemaVersion)
            throw ArtifactError(
                ErrorKind::BadVersion,
                "loadCalibration: " + path +
                    ": unsupported calibration schema version " +
                    std::to_string(reader.schemaVersion()));

        ApproxRunner &runner = mf.runner();
        {
            io::ByteReader r = reader.chunk(kChunkFingerprint);
            const ModelFingerprint stored = readFingerprint(r);
            if (stored != fingerprintOf(runner.model()))
                throw ArtifactError(
                    ErrorKind::Stale,
                    "loadCalibration: " + path +
                        ": calibration belongs to a different model "
                        "(fingerprint mismatch)");
        }

        io::ByteReader cr = reader.chunk(kChunkCalibration);
        MemoryFriendlyLstm::Calibration cal =
            readCalibrationChunk(cr, limits, path);

        // Parse + validate every predictor payload before mutating the
        // runner, so a failure cannot leave it half-restored.
        std::vector<std::vector<std::uint64_t>> h_counts, c_counts;
        for (std::size_t l = 0; l < runner.predictors().size(); ++l) {
            const LinkPredictor &p = runner.predictors()[l];
            io::ByteReader hr = reader.chunk(predictorHTag(l));
            h_counts.push_back(readDistribution(hr, p.hDistribution(),
                                                path, "h-link"));
            io::ByteReader rr = reader.chunk(predictorCTag(l));
            c_counts.push_back(readDistribution(rr, p.cDistribution(),
                                                path, "c-link"));
        }

        for (std::size_t l = 0; l < runner.predictors().size(); ++l) {
            LinkPredictor &p = runner.predictors()[l];
            applyDistribution(p.hDistribution(), h_counts[l]);
            applyDistribution(p.cDistribution(), c_counts[l]);
        }
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
                                    limits);
    if (reader.schemaVersion() != kCalibrationSchemaVersion)
        throw ArtifactError(ErrorKind::BadVersion,
                            "verifyCalibrationFile: " + path +
                                ": unsupported schema version");

    io::ByteReader fr = reader.chunk(kChunkFingerprint);
    const ModelFingerprint fp = readFingerprint(fr);

    io::ByteReader cr = reader.chunk(kChunkCalibration);
    (void)readCalibrationChunk(cr, limits, path);

    // Every predictor chunk must parse and agree with the fingerprint's
    // layer count and hidden size.
    for (std::uint64_t l = 0; l < fp.numLayers; ++l) {
        for (std::uint32_t tag : {predictorHTag(l), predictorCTag(l)}) {
            io::ByteReader r = reader.chunk(tag);
            const std::uint64_t dim = r.u64();
            const std::uint64_t bins = r.u64();
            (void)r.f64();
            (void)r.f64();
            const std::vector<std::uint64_t> counts = r.u64Array();
            r.expectEnd();
            if (dim != fp.hiddenSize ||
                counts.size() != io::checkedMul(dim, bins, "predictor"))
                throw ArtifactError(
                    ErrorKind::Malformed,
                    "verifyCalibrationFile: " + path +
                        ": predictor chunk inconsistent with "
                        "fingerprint");
        }
    }
}

} // namespace core
} // namespace mflstm
