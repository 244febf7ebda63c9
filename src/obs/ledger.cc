#include "ledger.hh"

#include <cmath>
#include <sstream>

namespace mflstm {
namespace obs {

const char *toString(TrafficCause c)
{
    switch (c) {
    case TrafficCause::Weight: return "weight";
    case TrafficCause::Dequant: return "dequant";
    case TrafficCause::Activation: return "activation";
    case TrafficCause::CrmMetadata: return "crm-metadata";
    case TrafficCause::Spill: return "spill";
    case TrafficCause::ResidencyReload: return "residency-reload";
    }
    return "unknown";
}

const char *toString(MatrixStream m)
{
    switch (m) {
    case MatrixStream::None: return "none";
    case MatrixStream::W: return "W";
    case MatrixStream::U: return "U";
    case MatrixStream::Bias: return "bias";
    case MatrixStream::ScaleStream: return "scale-stream";
    }
    return "unknown";
}

namespace {

// A named sub-stream may exceed its sample total by at most this
// relative slack before the decomposition counts as a double-count.
// The slack absorbs the one rounding step between "component × coalesce"
// and "total × coalesce"; a real double-count (PR 5's was 4x the tissue
// read traffic) overshoots by orders of magnitude more.
constexpr double kDecompositionSlack = 1e-9;

} // namespace

void TrafficLedger::record(const TrafficSample &s)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++samples_;
    // Same left-to-right accumulation order as the simulator's
    // TraceResult::dramBytes sum, so conservation is bit-exact.
    attributedTotal_ += s.totalDramBytes;

    const double named = s.weightBytes + s.scaleBytes + s.crmMetaBytes +
                         s.spillBytes + s.residencyReloadBytes;
    double activation = s.totalDramBytes - named;
    const double slack =
        kDecompositionSlack * std::max(std::abs(s.totalDramBytes), 1.0);
    if (activation < -slack) {
        std::ostringstream os;
        os << "kernel '" << s.kernel << "' (layer " << s.layer
           << "): named sub-streams (" << named
           << " B) exceed the launch total (" << s.totalDramBytes
           << " B) — double-counted attribution";
        violations_.push_back(os.str());
        activation = 0.0;
    } else if (activation < 0.0) {
        activation = 0.0;
    }

    auto add = [&](MatrixStream m, TrafficCause cause, double bytes) {
        if (bytes <= 0.0)
            return;
        NodeKey key;
        key.layer = s.layer;
        key.matrix = m;
        key.kernel = s.kernel;
        key.cause = cause;
        traffic_[key] += bytes;
    };
    add(s.matrix, TrafficCause::Weight, s.weightBytes);
    // The scale stream is its own matrix axis: it is a separate DRAM
    // object from the codes it dequantizes.
    add(MatrixStream::ScaleStream, TrafficCause::Dequant, s.scaleBytes);
    add(MatrixStream::None, TrafficCause::CrmMetadata, s.crmMetaBytes);
    add(MatrixStream::None, TrafficCause::Spill, s.spillBytes);
    // Reload bytes are weight traffic of the sample's matrix that the
    // pinned budget failed to keep on chip — attributed to the matrix
    // axis under their own cause so `mflstm profile` can show exactly
    // what residency bought (and what the overflow still costs).
    add(s.matrix, TrafficCause::ResidencyReload, s.residencyReloadBytes);
    add(MatrixStream::None, TrafficCause::Activation, activation);

    KernelKey kk;
    kk.layer = s.layer;
    kk.kernel = s.kernel;
    KernelStats &ks = kernels_[kk];
    ++ks.launches;
    ks.timeUs += s.timeUs;
    ks.dramBytes += s.totalDramBytes;
    if (!s.bottleneck.empty())
        ++ks.bottlenecks[s.bottleneck];
}

std::size_t TrafficLedger::samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
}

double TrafficLedger::attributedDramBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return attributedTotal_;
}

std::map<TrafficLedger::NodeKey, double> TrafficLedger::traffic() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return traffic_;
}

std::map<TrafficLedger::KernelKey, TrafficLedger::KernelStats>
TrafficLedger::kernels() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return kernels_;
}

std::vector<std::string>
TrafficLedger::verifyConservation(double trace_dram_bytes) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> errors = violations_;

    if (attributedTotal_ != trace_dram_bytes) {
        std::ostringstream os;
        os.precision(17);
        os << "conservation broken: ledger attributed "
           << attributedTotal_ << " B but the trace charged "
           << trace_dram_bytes << " B";
        errors.push_back(os.str());
    }

    double tree = 0.0;
    for (const auto &node : traffic_)
        tree += node.second;
    const double slack =
        1e-9 * std::max(std::abs(attributedTotal_), 1.0);
    if (std::abs(tree - attributedTotal_) > slack) {
        std::ostringstream os;
        os.precision(17);
        os << "attribution tree sums to " << tree
           << " B but the ledger attributed " << attributedTotal_
           << " B";
        errors.push_back(os.str());
    }
    return errors;
}

} // namespace obs
} // namespace mflstm
