#include "support/crm.hh"

#include <stdexcept>

namespace mflstm {
namespace test {

CrmRemap
reorganize(const std::vector<std::uint32_t> &trivial_rows,
           std::uint32_t threads_per_row, std::uint32_t total_threads)
{
    if (threads_per_row == 0)
        throw std::invalid_argument("CRM: threads_per_row must be > 0");

    // DTID decode: every thread of a trivial row is disabled.
    std::vector<bool> disabled(total_threads, false);
    for (std::uint32_t row : trivial_rows) {
        const std::uint64_t begin =
            static_cast<std::uint64_t>(row) * threads_per_row;
        for (std::uint64_t t = begin;
             t < begin + threads_per_row && t < total_threads; ++t) {
            disabled[static_cast<std::size_t>(t)] = true;
        }
    }

    // Prefix sum over the disable mask: HTID = STID - disabledBefore.
    CrmRemap res;
    res.htidOf.assign(total_threads, CrmRemap::kDisabled);
    std::uint32_t disabled_before = 0;
    for (std::uint32_t stid = 0; stid < total_threads; ++stid) {
        if (disabled[stid]) {
            ++disabled_before;
        } else {
            res.htidOf[stid] = stid - disabled_before;
        }
    }
    res.disabledThreads = disabled_before;
    res.activeThreads = total_threads - disabled_before;
    return res;
}

} // namespace test
} // namespace mflstm
