/**
 * @file
 * The zero-pruning comparator (Han et al. [31] in the paper): offline,
 * element-level magnitude pruning of the recurrent weight matrices. The
 * paper contrasts it with DRS in Fig. 16 — it compresses well but, run
 * on a GPU, pays branch divergence and lost coalescing.
 */

#ifndef MFLSTM_RUNTIME_PRUNING_HH
#define MFLSTM_RUNTIME_PRUNING_HH

#include "nn/model.hh"
#include "tensor/matrix.hh"

namespace mflstm {
namespace runtime {

/** What one pruning pass removed. */
struct PruningResult
{
    double threshold = 0.0;        ///< |w| below this was erased
    double prunedFraction = 0.0;   ///< elements removed / total
    /**
     * Weight-data compression: bytes removed / original bytes (the
     * Fig. 16(a) metric). Equals prunedFraction for dense fp32 storage.
     */
    double compressionRatio = 0.0;
    /**
     * Dense-to-CSR storage ratio: original dense bytes over the bytes
     * of the surviving values plus their 4 B column indices (the 1.5x
     * overhead the lowering charges). 0.0 marks the degenerate case of
     * zero surviving elements — guarded, never a division by zero.
     */
    double csrStorageRatio = 0.0;
};

/** Zero all elements of @p m with |w| < threshold; @return fraction. */
double pruneBelow(tensor::Matrix &m, double threshold);

/**
 * Apply zero-pruning to every recurrent matrix (U_f, U_i, U_c, U_o) of
 * every layer of a model, targeting a global pruned fraction. This is
 * the functional (accuracy-side) half of the comparator; the timing
 * half is PlanKind::ZeroPruning in the lowering.
 */
PruningResult applyZeroPruning(nn::LstmModel &model,
                               double target_fraction);

} // namespace runtime
} // namespace mflstm

#endif // MFLSTM_RUNTIME_PRUNING_HH
