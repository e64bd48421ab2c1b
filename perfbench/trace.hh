/**
 * @file
 * Span recorder for the benchmark's traced run.
 *
 * The benchmark records a span around each call it makes into a
 * simulator layer: name, start, end and parent span, with one run id
 * per simulation point. Spans stay in memory and are written out when
 * the run ends. Durations are measured in every run, traced or not,
 * because the untraced run reports phase totals too; only the span
 * records are kept when tracing is off.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One recorded call; times are seconds since the run's epoch. */
struct Span
{
    const char *name = ""; ///< static string
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index in the same log, -1 for a root span
    int run = 0;     ///< simulation point the span belongs to
};

/**
 * Span recorder for one simulation point. Pool workers each own one,
 * so recording takes no lock; logs are merged after the pool drains.
 */
class Tracer
{
  public:
    Tracer(bool on, int run, Clock::time_point epoch)
        : on_(on), run_(run), epoch_(epoch)
    {
    }

    bool on() const { return on_; }
    std::vector<Span> &spans() { return spans_; }

    /** Times its own lifetime; adds it to @p acc and, when tracing,
     *  records a span nested under the innermost open one. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, double *acc = nullptr)
            : t_(t), acc_(acc), prevOpen_(t.open_), t0_(Clock::now())
        {
            if (t_.on_) {
                index_ = static_cast<int>(t_.spans_.size());
                t_.spans_.push_back(
                    {name, secondsBetween(t_.epoch_, t0_), 0.0,
                     t_.open_, t_.run_});
                t_.open_ = index_;
            }
        }

        ~Scope()
        {
            const auto t1 = Clock::now();
            if (acc_)
                *acc_ += secondsBetween(t0_, t1);
            if (index_ >= 0) {
                t_.spans_[static_cast<std::size_t>(index_)].end =
                    secondsBetween(t_.epoch_, t1);
                t_.open_ = prevOpen_;
            }
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        double *acc_;
        int prevOpen_;
        int index_ = -1;
        Clock::time_point t0_;
    };

  private:
    bool on_;
    int run_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Append @p from to @p to, rebasing parent indices. */
inline void
appendSpans(std::vector<Span> &to, const std::vector<Span> &from)
{
    const int base = static_cast<int>(to.size());
    for (Span s : from) {
        if (s.parent >= 0)
            s.parent += base;
        to.push_back(s);
    }
}

/** Self time per span name: each span's duration minus the part its
 *  direct children cover (children never overlap their parent's
 *  siblings, since each Tracer is single-threaded). */
inline std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> child(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[spans[i].name] += spans[i].end - spans[i].start - child[i];
    return self;
}

/** Write the spans as one `consim.perfbench.trace.v1` JSON document. */
inline void
writeSpans(std::ostream &os, const std::vector<Span> &spans)
{
    os << std::fixed << std::setprecision(6)
       << "{\"schema\":\"consim.perfbench.trace.v1\",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"start\":" << s.start
           << ",\"end\":" << s.end << ",\"parent\":" << s.parent
           << ",\"run\":" << s.run << "}";
    }
    os << "\n]}\n";
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
