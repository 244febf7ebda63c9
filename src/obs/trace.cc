#include "obs/trace.hh"

#include <ostream>

#include "obs/json.hh"

namespace mflstm {
namespace obs {

void
SpanTracer::setTrackName(int pid, int tid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    trackNames_[{pid, tid}] = name;
}

void
SpanTracer::record(TraceSpan span)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return;
    }
    spans_.push_back(std::move(span));
}

double
SpanTracer::simCursorUs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return simCursorUs_;
}

void
SpanTracer::advanceSimCursor(double us)
{
    std::lock_guard<std::mutex> lock(mu_);
    simCursorUs_ += us;
}

std::size_t
SpanTracer::droppedSpans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

void
SpanTracer::writeChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();

    // Metadata: stable process/thread names so Perfetto labels tracks.
    const auto processName = [&](int pid, const char *name) {
        w.beginObject();
        w.key("name").value("process_name");
        w.key("ph").value("M");
        w.key("pid").value(pid);
        w.key("tid").value(0);
        w.key("args").beginObject().key("name").value(name).endObject();
        w.endObject();
    };
    processName(kHostPid, "host");
    processName(kGpuPid, "GPU (simulated time)");
    // The serve process only exists in traces that served requests;
    // labelling it unconditionally would change every non-serving
    // trace byte-for-byte.
    bool has_serve = false;
    for (const auto &[track, name] : trackNames_)
        has_serve |= track.first == kServePid;
    for (const TraceSpan &s : spans_)
        has_serve |= s.pid == kServePid;
    if (has_serve)
        processName(kServePid, "serve (request lifecycle)");

    for (const auto &[track, name] : trackNames_) {
        w.beginObject();
        w.key("name").value("thread_name");
        w.key("ph").value("M");
        w.key("pid").value(track.first);
        w.key("tid").value(track.second);
        w.key("args").beginObject().key("name").value(name).endObject();
        w.endObject();
    }

    for (const TraceSpan &s : spans_) {
        w.beginObject();
        w.key("name").value(s.name);
        if (!s.category.empty())
            w.key("cat").value(s.category);
        w.key("ph").value("X");
        w.key("pid").value(s.pid);
        w.key("tid").value(s.tid);
        w.key("ts").value(s.startUs);
        w.key("dur").value(s.durUs);
        if (!s.numArgs.empty() || !s.strArgs.empty()) {
            w.key("args").beginObject();
            for (const auto &[k, v] : s.numArgs)
                w.key(k).value(v);
            for (const auto &[k, v] : s.strArgs)
                w.key(k).value(v);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    if (dropped_ > 0)
        w.key("droppedSpans")
            .value(static_cast<std::uint64_t>(dropped_));
    w.endObject();
    os << '\n';
}

} // namespace obs
} // namespace mflstm
