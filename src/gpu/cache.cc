#include "gpu/cache.hh"

#include <cassert>

namespace mflstm {
namespace gpu {

double
streamingReuseDramBytes(double footprint_bytes, double sweeps,
                        double capacity_bytes, double residency_factor)
{
    assert(footprint_bytes >= 0.0 && sweeps >= 0.0);
    if (sweeps == 0.0 || footprint_bytes == 0.0)
        return 0.0;

    const double effective = capacity_bytes * residency_factor;
    if (footprint_bytes <= effective) {
        // Fits: compulsory misses only.
        return footprint_bytes;
    }

    // Thrashing: every sweep re-fetches all but the fraction that
    // happens to survive (at most effective/footprint of the set).
    const double resident = effective / footprint_bytes;
    return footprint_bytes +
           (sweeps - 1.0) * footprint_bytes * (1.0 - resident);
}

} // namespace gpu
} // namespace mflstm
