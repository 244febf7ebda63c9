/**
 * @file
 * The functional CTA-reorganization pass (Section V-B, Fig. 12): the
 * STID -> HTID remap the CRM hardware performs. The simulator prices a
 * pass from its disabled-thread count alone (gpu::CtaReorgModule::
 * reorganizeSummary); this oracle computes the remap itself, so tests
 * can check that the count is what the hardware would compact and that
 * surviving threads pack into whole warps.
 */

#ifndef MFLSTM_TESTS_SUPPORT_CRM_HH
#define MFLSTM_TESTS_SUPPORT_CRM_HH

#include <cstdint>
#include <vector>

namespace mflstm {
namespace test {

/** Result of one functional CRM pass over a kernel's grid. */
struct CrmRemap
{
    /// HTID for every STID; kDisabled for threads that were filtered.
    std::vector<std::uint32_t> htidOf;
    std::uint32_t activeThreads = 0;
    std::uint32_t disabledThreads = 0;

    static constexpr std::uint32_t kDisabled = 0xffffffffu;
};

/**
 * Full CRM pass: DTID decode + prefix-sum compaction + STID shift.
 * Thread t of the row-major Sgemv grid processes row t / threads_per_row,
 * so every thread of a trivial row is disabled. The prefix sum is the
 * running count of disabled slots, which is bit-identical to the
 * hardware chaining it per 32-thread unit.
 * @throws std::invalid_argument when @p threads_per_row is 0.
 */
CrmRemap reorganize(const std::vector<std::uint32_t> &trivial_rows,
                    std::uint32_t threads_per_row,
                    std::uint32_t total_threads);

} // namespace test
} // namespace mflstm

#endif // MFLSTM_TESTS_SUPPORT_CRM_HH
