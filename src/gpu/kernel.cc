#include "gpu/kernel.hh"

#include <stdexcept>

namespace mflstm {
namespace gpu {

const char *
toString(KernelClass k)
{
    switch (k) {
      case KernelClass::Sgemm:
        return "Sgemm";
      case KernelClass::Sgemv:
        return "Sgemv";
      case KernelClass::ElementWise:
        return "lstm_ew";
      case KernelClass::Drs:
        return "DRS";
      case KernelClass::Relevance:
        return "Relevance";
      case KernelClass::Persistent:
        return "Persistent";
      case KernelClass::Other:
        return "Other";
    }
    return "Unknown";
}

const char *
toString(WeightResidency r)
{
    switch (r) {
      case WeightResidency::None:
        return "none";
      case WeightResidency::Shared:
        return "shared";
      case WeightResidency::Regfile:
        return "regfile";
    }
    return "unknown";
}

std::size_t
KernelTrace::add(KernelDesc desc)
{
    desc.timestep = -1;
    desc.tissue = -1;
    kernels_.push_back(std::move(desc));
    return kernels_.size() - 1;
}

void
KernelTrace::launch(std::size_t kernel, int timestep, int tissue)
{
    if (kernel >= kernels_.size())
        throw std::out_of_range("KernelTrace::launch: no such kernel");
    launches_.push_back(
        {static_cast<std::uint32_t>(kernel), timestep, tissue});
}

KernelDesc
KernelTrace::operator[](std::size_t i) const
{
    const KernelLaunch &l = launches_.at(i);
    KernelDesc k = kernels_[l.kernel];
    k.timestep = l.timestep;
    k.tissue = l.tissue;
    return k;
}

} // namespace gpu
} // namespace mflstm
