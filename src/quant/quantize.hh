/**
 * @file
 * Post-training weight quantization of an LSTM model (DESIGN.md §12).
 *
 * Fake-quant (applyFakeQuant) applies the per-row quantize-dequantize
 * round trip of tensor::QuantizedMatrix in place to an fp32 model, so
 * the existing fp32 dataflow (ApproxRunner, DRS, tissues) computes
 * *exactly* what a dequantize-in-register kernel streaming the integer
 * codes would compute. The accuracy the ladder measures through a
 * fake-quantized model is therefore the accuracy of serving the
 * quantized weights.
 *
 * Error bound: per-row symmetric quantization guarantees
 * |w - s_r q| <= s_r/2 = absmax_r/(2 qmax), so a GEMV row output
 * drifts by at most (s_r/2) sum|x|.
 */

#ifndef MFLSTM_QUANT_QUANTIZE_HH
#define MFLSTM_QUANT_QUANTIZE_HH

#include <cstddef>

#include "nn/model.hh"
#include "quant/qformat.hh"
#include "tensor/qmatrix.hh"

namespace mflstm {
namespace quant {

/** What applyFakeQuant did to the weights. */
struct FakeQuantStats
{
    QuantMode mode = QuantMode::Fp32;
    std::size_t matrices = 0;  ///< W/U matrices rewritten
    std::size_t elements = 0;  ///< weight elements rewritten
    double maxAbsError = 0.0;  ///< max |w - dequant(quant(w))|
    double meanAbsError = 0.0;
    double fp32Bytes = 0.0;    ///< what the rewritten matrices occupied
    double quantBytes = 0.0;   ///< what their quantized form occupies

    /** Weight-byte compression (4x for int8, 8x for int4). */
    double compressionRatio() const
    {
        return quantBytes > 0.0 ? fp32Bytes / quantBytes : 1.0;
    }
};

/**
 * Quantize-dequantize every W/U matrix of @p model in place. Fp32 mode
 * is a no-op (zero-error stats). Idempotent: quantizing an already
 * fake-quantized model reproduces it exactly, because every value is
 * already representable at its row's scale.
 */
FakeQuantStats applyFakeQuant(nn::LstmModel &model, QuantMode mode);

} // namespace quant
} // namespace mflstm

#endif // MFLSTM_QUANT_QUANTIZE_HH
