#include "support/trace.hh"

namespace mflstm {
namespace test {

gpu::KernelTrace
traceOf(std::initializer_list<gpu::KernelDesc> launches)
{
    gpu::KernelTrace trace;
    trace.reserve(launches.size());
    for (const gpu::KernelDesc &k : launches)
        trace.launch(trace.add(k), k.timestep, k.tissue);
    return trace;
}

} // namespace test
} // namespace mflstm
