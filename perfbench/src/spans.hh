/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator's public API. Spans stay in memory and are written once,
 * at the end of a traced run, as Chrome/Perfetto trace-event JSON (the
 * format `tf_bench --trace` writes): one process per workload with a
 * setup, a run and a probe track.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Track { Setup = 1, Run = 2, Probe = 3 };

class Spans
{
  public:
    using Clock = std::chrono::steady_clock;

    /** @p keep = false times calls but records nothing (untraced). */
    explicit Spans(bool keep) : _keep(keep), _origin(Clock::now()) {}

    /** Run @p fn as one span; returns its host duration in seconds. */
    template <typename Fn>
    double
    timed(Track track, const std::string &name, Fn &&fn)
    {
        Clock::time_point start = Clock::now();
        std::forward<Fn>(fn)();
        Clock::time_point end = Clock::now();
        if (_keep)
            _spans.push_back(Span{track, name, ns(start), ns(end)});
        return std::chrono::duration<double>(end - start).count();
    }

    std::size_t size() const { return _spans.size(); }

    /**
     * Write every span as trace-event JSON, with @p summary (e.g.
     * trace.overhead_frac) under "otherData"; false on I/O failure.
     */
    bool writeJson(const std::string &path, const std::string &process,
                   const std::map<std::string, double> &summary) const;

  private:
    struct Span
    {
        Track track;
        std::string name;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::int64_t
    ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - _origin)
            .count();
    }

    bool _keep;
    Clock::time_point _origin;
    std::vector<Span> _spans;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
