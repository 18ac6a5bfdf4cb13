/**
 * @file
 * The one scope primitive, and the per-thread state behind it.
 *
 * A trace::Scope marks a named (`layer.noun.verb`) region of work and
 * feeds every consumer that is on: its accumulator (inclusive wall
 * seconds; OTFT_TRACE_SCOPE registers `time.<name>`), the Chrome
 * timeline (start()/stop()), the sampling profiler (its name, then
 * its label, as stack frames), and diag (its label joins the thread's
 * context, "mc.sample3.inv/liberty.inv.pin0", read by currentLabel()).
 *
 *     OTFT_TRACE_SCOPE("sta.analyze");
 *     OTFT_TRACE_SCOPE_LABELED("liberty.point.measure",
 *                              "liberty." + cell + ".pin" + pin);
 *
 * A label is built only while diag or the profiler is on. With every
 * consumer off a scope costs relaxed loads (plus two clock reads when
 * it carries an accumulator and stats are enabled).
 *
 * Each thread a consumer touches gets one registered state here: its
 * frame stack, diag label, timeline buffer and busy flag. The
 * profiler samples it through sampleThreads(); stop() drains it, also
 * for threads that have exited. Call start()/stop() from one thread.
 */

#ifndef OTFT_UTIL_TRACE_HPP
#define OTFT_UTIL_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/stats_registry.hpp"

namespace otft::trace {

namespace detail {

/** Consumers a scope may feed beyond its accumulator. */
enum Consumer : unsigned {
    Timeline = 1u,
    Profiler = 2u,
    Diag = 4u,
};

/** Bitmask of the active consumers; read once per scope (relaxed). */
extern std::atomic<unsigned> g_consumers;

inline unsigned
consumers()
{
    return g_consumers.load(std::memory_order_relaxed);
}

/** Turn one consumer bit on or off (profiler and diag switches). */
void setConsumer(Consumer consumer, bool on);

/** Append one complete ("ph":"X") event to the calling thread. */
void recordEvent(const char *name, std::int64_t start_ns,
                 std::int64_t end_ns);

} // namespace detail

/**
 * Begin collecting a Chrome trace_event timeline. Events buffer per
 * thread until stop() writes them to `path` as a JSON array.
 * Collecting twice without an intervening stop() discards the first
 * collection.
 */
void start(const std::string &path);

/**
 * Write the buffered events of every thread, live or exited, to the
 * start() path and stop collecting. Timestamps and durations are
 * microseconds in fixed notation with nanosecond resolution.
 */
void stop();

/** @return true while a timeline collection is active. */
inline bool
collecting()
{
    return (detail::consumers() & detail::Timeline) != 0;
}

/** Timestamp origin of the current collection (monotonic ns). */
std::int64_t epochNs();

/** Number of buffered timeline events (for tests). */
std::size_t eventCount();

/**
 * Record a zero-width marker on the timeline (profiler start/stop,
 * cache hits). No-op unless a collection is active. `name` must
 * outlive the collection (a literal): buffers keep the pointer.
 */
void recordInstant(const char *name);

/** @return true while some consumer of scope labels is on. */
inline bool
labelsOn()
{
    return (detail::consumers() & (detail::Profiler | detail::Diag)) !=
           0;
}

/**
 * The calling thread's diag context: the labels of its enclosing
 * scopes joined with '/' ("" when none, or while diag is off).
 */
const std::string &currentLabel();

/**
 * Name the calling thread's profiler stack root ("worker" for pool
 * threads; unnamed threads sample under "main"). Call before the
 * thread opens its first scope; `name` must be a string literal.
 */
void setThreadName(const char *name);

/**
 * RAII busy marker for worker-pool attribution: while alive, the
 * profiler counts the calling thread as busy. One relaxed load when
 * the profiler is off.
 */
class BusyScope
{
  public:
    BusyScope();
    ~BusyScope();

    BusyScope(const BusyScope &) = delete;
    BusyScope &operator=(const BusyScope &) = delete;

  private:
    std::atomic<bool> *busy = nullptr;
};

/** One live thread as the profiler's sampler sees it. */
struct ThreadSample
{
    std::uint64_t thread = 0; ///< registration serial (stable id)
    const char *role = "main"; ///< stack root
    bool busy = false; ///< inside a BusyScope
    bool dropped = false; ///< frame lock was held: no stack read
    const std::string *stack = nullptr; ///< "role;frame;..." or ""
};

/**
 * Visit every live registered thread once. Stacks are read with a
 * try-lock, so sampling never blocks the sampled thread. `;`,
 * whitespace and control characters in frames read as '_', and
 * frames beyond the 64th as one "(deep)".
 */
void sampleThreads(const std::function<void(const ThreadSample &)> &visit);

/**
 * RAII scope; see the file comment. `acc` (optional) receives the
 * wall seconds while stats are enabled. `label` (optional) is the
 * scope's diag context and extra profiler frame; it is ignored while
 * labelsOn() is false, so build a dynamic one only when labelsOn()
 * (OTFT_TRACE_SCOPE_LABELED does).
 */
class Scope
{
  public:
    explicit Scope(const char *name, stats::Accumulator *acc = nullptr)
        : name_(name), acc_(acc)
    {
        const unsigned on = detail::consumers();
        if ((on & detail::Timeline) != 0 ||
            (acc != nullptr && stats::enabled())) {
            timed_ = true;
            startNs_ = stats::monotonicNowNs();
        }
        if ((on & detail::Profiler) != 0)
            addFrame(name);
    }

    Scope(const char *name, stats::Accumulator *acc,
          const std::string &label)
        : Scope(name, acc)
    {
        if (!label.empty())
            pushLabel(label);
    }

    ~Scope()
    {
        if (frames_ != 0 || labelMark_ != noLabel)
            pop();
        if (!timed_)
            return;
        const std::int64_t end_ns = stats::monotonicNowNs();
        if (acc_ != nullptr && stats::enabled())
            acc_->sample(static_cast<double>(end_ns - startNs_) * 1e-9);
        if (collecting())
            detail::recordEvent(name_, startNs_, end_ns);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    static constexpr std::size_t noLabel = ~std::size_t{0};

    void addFrame(std::string_view text);
    void pushLabel(const std::string &label);
    void pop();

    const char *name_;
    stats::Accumulator *acc_;
    bool timed_ = false;
    /** Profiler frames this scope pushed (0, 1 or 2). */
    unsigned char frames_ = 0;
    /** Diag label length before this scope appended (or noLabel). */
    std::size_t labelMark_ = noLabel;
    std::int64_t startNs_ = 0;
};

} // namespace otft::trace

#define OTFT_TRACE_CONCAT2(a, b) a##b
#define OTFT_TRACE_CONCAT(a, b) OTFT_TRACE_CONCAT2(a, b)
#define OTFT_TRACE_ACC OTFT_TRACE_CONCAT(otft_trace_acc_, __LINE__)

#define OTFT_TRACE_SCOPE_WITH(name, ...)                                \
    static ::otft::stats::Accumulator &OTFT_TRACE_ACC =                 \
        ::otft::stats::accumulator("time." name,                        \
                                   "seconds in " name " spans");        \
    ::otft::trace::Scope OTFT_TRACE_CONCAT(otft_trace_scope_, __LINE__)( \
        name, &OTFT_TRACE_ACC __VA_OPT__(, ) __VA_ARGS__)

/**
 * Scope the rest of the block under `name` (a string literal), timed
 * into the stats accumulator `time.<name>`.
 */
#define OTFT_TRACE_SCOPE(name) OTFT_TRACE_SCOPE_WITH(name)

/**
 * OTFT_TRACE_SCOPE plus a dynamic label: `label` is an expression
 * convertible to std::string, evaluated only while labelsOn().
 */
#define OTFT_TRACE_SCOPE_LABELED(name, label)                           \
    OTFT_TRACE_SCOPE_WITH(name, ::otft::trace::labelsOn()               \
                                    ? std::string(label)                \
                                    : std::string())

#endif // OTFT_UTIL_TRACE_HPP
