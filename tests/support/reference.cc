#include "support/reference.hh"

#include <algorithm>
#include <stdexcept>

#include "core/relevance.hh"
#include "nn/lstm.hh"

namespace mflstm {
namespace test {

tensor::Matrix
vconcat(const std::vector<const tensor::Matrix *> &parts)
{
    if (parts.empty())
        return {};

    const std::size_t cols = parts.front()->cols();
    std::size_t rows = 0;
    for (const tensor::Matrix *part : parts) {
        if (part->cols() != cols)
            throw std::invalid_argument("vconcat: column mismatch");
        rows += part->rows();
    }

    tensor::Matrix out(rows, cols);
    std::size_t r = 0;
    for (const tensor::Matrix *part : parts) {
        std::copy(part->data(), part->data() + part->size(),
                  out.data() + r * cols);
        r += part->rows();
    }
    return out;
}

tensor::Matrix
dequantize(const tensor::QuantizedMatrix &q)
{
    tensor::Matrix out(q.rows(), q.cols());
    for (std::size_t r = 0; r < q.rows(); ++r)
        for (std::size_t c = 0; c < q.cols(); ++c)
            out.at(r, c) = q.dequant(r, c);
    return out;
}

SerialCalibration
serialCalibrate(const core::ApproxRunner &runner,
                const std::vector<std::vector<std::int32_t>> &token_seqs)
{
    const nn::LstmModel &m = runner.activeModel();
    SerialCalibration out{runner.predictors(), {}};

    for (const auto &seq : token_seqs) {
        if (seq.empty())
            continue;
        std::vector<std::vector<nn::LstmCellTrace>> traces;
        m.runLayers(m.embed(seq), &traces);
        for (std::size_t l = 0; l < traces.size(); ++l)
            out.predictors[l].observe(traces[l]);
    }

    std::vector<core::LayerRelevanceContext> ctx;
    for (const nn::LstmLayerParams &p : m.layers())
        ctx.emplace_back(p);
    core::ApproxRunner::CalibrationProfile &prof = out.profile;
    prof.layerRelevances.resize(m.layers().size());
    for (const auto &seq : token_seqs) {
        if (seq.empty())
            continue;
        std::vector<tensor::Vector> acts = m.embed(seq);
        std::vector<nn::LstmCellTrace> traces;
        for (std::size_t l = 0; l < m.layers().size(); ++l) {
            const nn::LstmLayerParams &p = m.layers()[l];
            const tensor::Matrix projs = nn::projectInputs(p, acts);
            for (std::size_t t = 1; t < projs.rows(); ++t) {
                const double sv = ctx[l].relevance(p, projs.row(t));
                prof.relevances.push_back(sv);
                prof.layerRelevances[l].push_back(sv);
            }
            acts = nn::lstmLayerForward(p, projs, m.config().sigmoid, {},
                                        &traces);
            for (const nn::LstmCellTrace &tr : traces)
                prof.outputGates.insert(prof.outputGates.end(),
                                        tr.o.begin(), tr.o.end());
        }
    }
    std::sort(prof.relevances.begin(), prof.relevances.end());
    for (auto &xs : prof.layerRelevances)
        std::sort(xs.begin(), xs.end());
    std::sort(prof.outputGates.begin(), prof.outputGates.end());
    return out;
}

} // namespace test
} // namespace mflstm
