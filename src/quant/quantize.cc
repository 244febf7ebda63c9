#include "quant/quantize.hh"

#include <algorithm>
#include <cmath>

namespace mflstm {
namespace quant {

FakeQuantStats
applyFakeQuant(nn::LstmModel &model, QuantMode mode)
{
    FakeQuantStats st;
    st.mode = mode;
    if (mode == QuantMode::Fp32)
        return st;
    double err_sum = 0.0;
    for (nn::LstmLayerParams &p : model.layers()) {
        for (tensor::Matrix *m :
             {&p.wf, &p.wi, &p.wc, &p.wo, &p.uf, &p.ui, &p.uc, &p.uo}) {
            const tensor::QuantizedMatrix q =
                tensor::QuantizedMatrix::quantize(*m, mode);
            st.matrices += 1;
            st.elements += m->size();
            st.fp32Bytes += static_cast<double>(m->bytes());
            st.quantBytes +=
                static_cast<double>(q.payload().size()) +
                static_cast<double>(q.scales().size() * sizeof(float));
            for (std::size_t r = 0; r < m->rows(); ++r)
                for (std::size_t c = 0; c < m->cols(); ++c) {
                    const float dq = q.dequant(r, c);
                    const double e =
                        std::fabs(static_cast<double>(m->at(r, c)) -
                                  static_cast<double>(dq));
                    st.maxAbsError = std::max(st.maxAbsError, e);
                    err_sum += e;
                    m->at(r, c) = dq;
                }
        }
    }
    if (st.elements > 0)
        st.meanAbsError = err_sum / static_cast<double>(st.elements);
    return st;
}

} // namespace quant
} // namespace mflstm
