#include "sysbench/spans.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

namespace mflstm {
namespace sysbench {

const char *
toString(Layer layer)
{
    switch (layer) {
      case Layer::Serve:
        return "serve";
      case Layer::Core:
        return "core";
      case Layer::Runtime:
        return "runtime";
      case Layer::Gpu:
        return "gpu";
      case Layer::Sched:
        return "sched";
      case Layer::Io:
        return "io";
    }
    return "?";
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double
Tracer::nowUs() const
{
    return toUs(Clock::now());
}

double
Tracer::toUs(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

Tracer::Scope::~Scope()
{
    if (tracer_)
        tracer_->close(id_);
}

void
Tracer::Scope::setItems(double items)
{
    if (tracer_)
        tracer_->spans_[id_ - 1].items = items;
}

Tracer::Scope
Tracer::scope(std::string name, Layer layer, std::uint64_t request)
{
    if (!enabled_)
        return Scope(nullptr, 0);
    Span s;
    s.name = std::move(name);
    s.layer = layer;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.request = request;
    s.setup = setup_;
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return Scope(this, spans_.back().id);
}

void
Tracer::close(std::uint64_t id)
{
    spans_[id - 1].endUs = nowUs();
    // Scopes are RAII objects, so they close innermost first.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::uint64_t
Tracer::add(std::string name, Layer layer, double start_us, double end_us,
            std::uint64_t parent, std::uint64_t request, double items)
{
    if (!enabled_)
        return 0;
    Span s;
    s.name = std::move(name);
    s.layer = layer;
    s.id = spans_.size() + 1;
    s.parent = parent ? parent : (open_.empty() ? 0 : open_.back());
    s.request = request;
    s.startUs = start_us;
    s.endUs = std::max(start_us, end_us);
    s.items = items;
    s.setup = setup_;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<double>
Tracer::selfTimesUs() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent)
            children[s.parent - 1].emplace_back(s.startUs, s.endUs);

    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent:
        // concurrent children (requests in flight together) overlap.
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, s.startUs);
            b = std::min(b, s.endUs);
            if (b <= a)
                continue;
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        self[i] = std::max(0.0, (s.endUs - s.startUs) - covered);
    }
    return self;
}

std::array<double, kLayerCount>
Tracer::layerSelfUs() const
{
    std::array<double, kLayerCount> out{};
    const std::vector<double> self = selfTimesUs();
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (!spans_[i].setup)
            out[static_cast<std::size_t>(spans_[i].layer)] += self[i];
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Span names are benchmark-defined identifiers: no escaping needed.
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << toString(s.layer) << "\",\"ph\":\"X\"";
        std::snprintf(buf, sizeof buf,
                      ",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                      s.request ? 1 : 0, s.startUs, s.endUs - s.startUs);
        os << buf;
        std::snprintf(buf, sizeof buf,
                      ",\"args\":{\"id\":%llu,\"parent\":%llu,"
                      "\"request\":%llu,\"items\":%.17g,\"setup\":%d}}",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.request), s.items,
                      s.setup ? 1 : 0);
        os << buf;
    }
    os << "\n]}\n";
}

} // namespace sysbench
} // namespace mflstm
