/**
 * @file
 * Span tracer: records complete spans (kernel launches on per-SM GPU
 * tracks in simulated microseconds, host phases on a wall-clock track)
 * and exports them as Chrome trace-event JSON, viewable in Perfetto or
 * chrome://tracing. The two time domains never share a track: GPU
 * tracks live under the "GPU (simulated time)" process, host phases
 * under "host".
 *
 * Thread safety: record / setTrackName / cursor ops / writeChromeTrace
 * are serialised on an internal mutex, so several engine workers can
 * trace into one sink. Concurrent batches interleave on the simulated
 * cursor (each claims its slice when it finishes). spans() hands out a
 * reference and is for quiesced readers — join the workers first.
 */

#ifndef MFLSTM_OBS_TRACE_HH
#define MFLSTM_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mflstm {
namespace obs {

/** One completed span ("X" event in the trace-event format). */
struct TraceSpan
{
    std::string name;
    std::string category;
    int pid = 0;  ///< process track (kHostPid / kGpuPid)
    int tid = 0;  ///< thread track (SM index on the GPU process)
    double startUs = 0.0;
    double durUs = 0.0;

    std::vector<std::pair<std::string, double>> numArgs;
    std::vector<std::pair<std::string, std::string>> strArgs;
};

/** Collects spans and renders the Chrome trace-event file. */
class SpanTracer
{
  public:
    static constexpr int kHostPid = 0;
    static constexpr int kGpuPid = 1;
    /// per-request lifecycle spans of the serving layer (wall clock)
    static constexpr int kServePid = 2;
    /// safety valve against unbounded sweeps; further spans are counted
    /// but dropped
    static constexpr std::size_t kMaxSpans = 1u << 20;

    /** Name a (pid, tid) track ("SM 0", "phases", ...). */
    void setTrackName(int pid, int tid, const std::string &name);

    void record(TraceSpan span);

    /**
     * Cursor of the simulated-time domain: traces run back-to-back on
     * the GPU tracks so successive Simulator instances don't overlap.
     */
    double simCursorUs() const;
    void advanceSimCursor(double us);

    /** Quiescent readers only — join recording threads first. */
    const std::vector<TraceSpan> &spans() const { return spans_; }
    std::size_t droppedSpans() const;

    /** Full trace-event JSON document ({"traceEvents":[...]}). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::vector<TraceSpan> spans_;
    std::map<std::pair<int, int>, std::string> trackNames_;
    double simCursorUs_ = 0.0;
    std::size_t dropped_ = 0;
    mutable std::mutex mu_;
};

} // namespace obs
} // namespace mflstm

#endif // MFLSTM_OBS_TRACE_HH
