/**
 * @file
 * In-memory span tracer for the traced benchmark run. Spans are
 * recorded by the benchmark's own code around calls into the library,
 * one layer per span, and kept in memory until the run ends; the
 * per-layer self times and the Chrome trace-event file are derived from
 * them afterwards.
 *
 * A disabled tracer records nothing and reads no clock, so the untraced
 * run pays only a branch per scope. Not thread-safe: record from one
 * thread (the benchmark's generator/client thread).
 */

#ifndef SYSBENCH_SPANS_HH
#define SYSBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mflstm {
namespace sysbench {

/** The library layers spans are attributed to (module names). */
enum class Layer : std::uint8_t { Serve, Core, Runtime, Gpu, Sched, Io };

inline constexpr std::size_t kLayerCount = 6;

const char *toString(Layer layer);

struct Span
{
    std::string name;
    Layer layer = Layer::Core;
    /// 1-based; 0 means "no span" (the parent of a root span)
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    /// serve request this span belongs to (0 when none)
    std::uint64_t request = 0;
    double startUs = 0.0;
    double endUs = 0.0;
    /// sequences, kernels or candidates the call processed (0 = unset)
    double items = 0.0;
    /// recorded during set-up (excluded from the layer self times)
    bool setup = false;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Mark the spans recorded from now on as set-up (or not). */
    void setSetup(bool setup) { setup_ = setup; }

    using Clock = std::chrono::steady_clock;

    /** Microseconds since the tracer was created. */
    double nowUs() const;
    /** @p t on the tracer's microsecond axis. */
    double toUs(Clock::time_point t) const;

    /** RAII span: opened as a child of the innermost open scope. */
    class Scope
    {
      public:
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope(Scope &&) = delete;
        Scope &operator=(Scope &&) = delete;
        ~Scope();

        /** Record how many items the call processed. */
        void setItems(double items);
        /** Id of this span (0 when the tracer is disabled). */
        std::uint64_t id() const { return id_; }

      private:
        friend class Tracer;
        Scope(Tracer *tracer, std::uint64_t id) : tracer_(tracer), id_(id)
        {}
        Tracer *tracer_;
        std::uint64_t id_;
    };

    Scope scope(std::string name, Layer layer, std::uint64_t request = 0);

    /**
     * Record an already completed span under @p parent (0: under the
     * innermost open scope). Returns its id, 0 when disabled.
     */
    std::uint64_t add(std::string name, Layer layer, double start_us,
                      double end_us, std::uint64_t parent = 0,
                      std::uint64_t request = 0, double items = 0.0);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span (index-aligned with spans()): its duration
     * minus the part of its interval covered by its children.
     */
    std::vector<double> selfTimesUs() const;

    /** Summed self time per layer, set-up spans excluded. */
    std::array<double, kLayerCount> layerSelfUs() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    void close(std::uint64_t id);

    bool enabled_;
    bool setup_ = false;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> open_;
};

} // namespace sysbench
} // namespace mflstm

#endif // SYSBENCH_SPANS_HH
