/**
 * @file
 * Hand-built kernel traces for the simulator tests.
 */

#ifndef MFLSTM_TESTS_SUPPORT_TRACE_HH
#define MFLSTM_TESTS_SUPPORT_TRACE_HH

#include <initializer_list>

#include "gpu/kernel.hh"

namespace mflstm {
namespace test {

/** Each descriptor stored as its own kernel and launched once, with its
 *  own timestep and tissue as the launch's provenance. */
gpu::KernelTrace traceOf(std::initializer_list<gpu::KernelDesc> launches);

} // namespace test
} // namespace mflstm

#endif // MFLSTM_TESTS_SUPPORT_TRACE_HH
