/**
 * @file
 * Host-time spans and accumulating timers for the traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the simulator's public functions (nothing inside src/ is
 * instrumented). Each span has a name, a start and end on the host
 * steady clock, the id of the span that caused it and a run id that
 * groups the spans of one simulated run. They stay in memory and are
 * written once, at the end, as Chrome trace-event JSON, which
 * Perfetto and chrome://tracing open directly.
 */

#ifndef CLUMSY_PERFBENCH_TRACE_HH
#define CLUMSY_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Host time and call count accumulated over many timed calls. */
struct Timer
{
    double seconds = 0.0;
    std::uint64_t calls = 0;

    /** Run @p fn, adding its host time to this timer. */
    template <typename Fn>
    decltype(auto) time(Fn &&fn)
    {
        const auto start = Clock::now();
        struct Stop
        {
            Timer &t;
            Clock::time_point s;
            ~Stop()
            {
                t.seconds += secondsSince(s);
                ++t.calls;
            }
        } stop{*this, start};
        return fn();
    }
};

/** One recorded span. */
struct Span
{
    std::string name;
    double startUs = 0.0; ///< since the tracer's origin
    double endUs = 0.0;
    int id = 0;
    int parent = -1; ///< -1 = root
    int run = -1;    ///< simulated-run id, -1 = not tied to one run
};

/** In-memory span store; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Microseconds since the tracer was created. */
    double nowUs() const;

    /** Open a span; returns its id (-1 when disabled). */
    int begin(const std::string &name, int parent = -1, int run = -1);

    /** Close span @p id (no-op for -1). */
    void end(int id);

    /** Record an already-finished span. */
    int add(const std::string &name, double startUs, double endUs,
            int parent = -1, int run = -1);

    /** A fresh simulated-run id. */
    int newRun();

    std::size_t size() const;

    /**
     * Write every span as a Chrome trace-event JSON document, with
     * @p manifestJson (a JSON object) stored as trace metadata.
     * @return false when the file cannot be written.
     */
    bool writeChrome(const std::string &path,
                     const std::string &manifestJson) const;

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_; ///< guards spans_ and nextRun_
    std::vector<Span> spans_;
    int nextRun_ = 0;
};

/** RAII span: opened on construction, closed on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name, int parent = -1,
               int run = -1)
        : tracer_(tracer), id_(tracer.begin(name, parent, run))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // CLUMSY_PERFBENCH_TRACE_HH
