#include "util/trace.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace otft::trace {

namespace detail {
std::atomic<unsigned> g_consumers{0};
} // namespace detail

namespace {

/** Frames kept per thread; deeper pushes sample as "(deep)". */
constexpr std::size_t maxDepth = 64;
/** Longest frame label copied; the tail is truncated. */
constexpr std::size_t maxLabel = 96;
/** Preallocation per frame slot so pushes never allocate. */
constexpr std::size_t reserveLabel = 128;

struct Event
{
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
};

/**
 * One registered thread. The owner mutates `frames`/`depth` under
 * `framesMutex`, which the sampler only try-locks, and `events` under
 * `eventsMutex`, which stop() takes to drain. `label` is read and
 * written by the owner only. `busy` and `alive` need no lock.
 */
struct ThreadState
{
    std::mutex framesMutex;
    std::size_t depth = 0;
    std::string frames[maxDepth];
    std::mutex eventsMutex;
    std::vector<Event> events;
    /** Collection generation the buffered events belong to. */
    std::uint64_t eventsGeneration = 0;
    std::string label;
    std::atomic<bool> busy{false};
    std::atomic<bool> alive{true};
    /** Stack root; points at a string literal. */
    const char *role = "main";
    /** Registration order; the timeline's tid order. */
    std::uint64_t serial = 0;

    ThreadState()
    {
        for (std::string &f : frames)
            f.reserve(reserveLabel);
    }
};

/**
 * The one per-thread registry. A state stays registered after its
 * thread exits until its timeline events are drained or stale, so a
 * thread that finishes before stop() still lands in the file.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadState>> threads;
    std::uint64_t nextSerial = 1;
    /**
     * Bumped by start() and stop(): events buffered under another
     * generation belong to a finished collection and are dropped.
     */
    std::atomic<std::uint64_t> generation{1};
    std::string path;
    std::int64_t epochNs = 0;
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked: outlives thread exits
    return *r;
}

/** Drop exited threads that hold no current timeline events. */
void
pruneLocked(Registry &r)
{
    const std::uint64_t gen = r.generation.load(std::memory_order_relaxed);
    const bool timeline = collecting();
    r.threads.erase(
        std::remove_if(r.threads.begin(), r.threads.end(),
                       [&](const std::shared_ptr<ThreadState> &s) {
                           if (s->alive.load(std::memory_order_relaxed))
                               return false;
                           std::lock_guard<std::mutex> lock(s->eventsMutex);
                           return !timeline || s->events.empty() ||
                                  s->eventsGeneration != gen;
                       }),
        r.threads.end());
}

thread_local const char *t_role = "main";
thread_local ThreadState *t_state = nullptr;

/** Marks the thread's state dead at thread exit; the registry keeps it. */
struct StateHolder
{
    std::shared_ptr<ThreadState> state;
    ~StateHolder()
    {
        t_state = nullptr;
        if (state)
            state->alive.store(false, std::memory_order_relaxed);
    }
};

/** The calling thread's state, registered on first use. */
ThreadState &
threadState()
{
    if (t_state != nullptr)
        return *t_state;
    thread_local StateHolder holder;
    auto state = std::make_shared<ThreadState>();
    state->role = t_role;
    Registry &r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        pruneLocked(r);
        state->serial = r.nextSerial++;
        r.threads.push_back(state);
    }
    holder.state = std::move(state);
    t_state = holder.state.get();
    return *t_state;
}

/** Nanoseconds as microseconds in fixed notation ("1500000.123"). */
void
writeMicros(std::ostream &os, std::int64_t ns)
{
    if (ns < 0) {
        os << '-';
        ns = -ns;
    }
    const std::int64_t frac = ns % 1000;
    os << ns / 1000 << '.' << static_cast<char>('0' + frac / 100)
       << static_cast<char>('0' + frac / 10 % 10)
       << static_cast<char>('0' + frac % 10);
}

} // namespace

namespace detail {

void
setConsumer(Consumer consumer, bool on)
{
    if (on)
        g_consumers.fetch_or(consumer, std::memory_order_release);
    else
        g_consumers.fetch_and(~static_cast<unsigned>(consumer),
                              std::memory_order_release);
}

void
recordEvent(const char *name, std::int64_t start_ns,
            std::int64_t end_ns)
{
    if (!collecting())
        return;
    ThreadState &s = threadState();
    const std::uint64_t gen =
        registry().generation.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(s.eventsMutex);
    if (s.eventsGeneration != gen) {
        s.events.clear();
        s.eventsGeneration = gen;
    }
    s.events.push_back({name, start_ns, end_ns});
}

} // namespace detail

void
start(const std::string &path)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.path = path;
    r.epochNs = stats::monotonicNowNs();
    r.generation.fetch_add(1, std::memory_order_release);
    detail::setConsumer(detail::Timeline, true);
    pruneLocked(r);
}

void
stop()
{
    if (!collecting())
        return;
    Registry &r = registry();

    struct Merged
    {
        Event event;
        int tid;
    };
    std::vector<Merged> merged;
    std::string path;
    std::int64_t epoch_ns = 0;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        detail::setConsumer(detail::Timeline, false);
        // Events pushed from here on belong to no collection.
        const std::uint64_t gen =
            r.generation.fetch_add(1, std::memory_order_acq_rel);
        int tid = 0;
        for (const auto &state : r.threads) {
            std::vector<Event> events;
            {
                std::lock_guard<std::mutex> state_lock(
                    state->eventsMutex);
                if (state->eventsGeneration == gen)
                    events.swap(state->events);
            }
            if (events.empty())
                continue;
            ++tid; // registration order among threads with events
            for (const Event &e : events)
                merged.push_back({e, tid});
        }
        pruneLocked(r);
        path = r.path;
        epoch_ns = r.epochNs;
    }

    // One stream ordered by start time (ties by tid), so the output
    // is stable for a given set of recorded events.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Merged &a, const Merged &b) {
                         if (a.event.startNs != b.event.startNs)
                             return a.event.startNs < b.event.startNs;
                         return a.tid < b.tid;
                     });

    std::ofstream os(path);
    if (!os)
        fatal("trace: cannot write ", path);
    // Chrome trace_event JSON array of complete events; timestamps
    // and durations are microseconds. tid distinguishes the emitting
    // thread in the timeline view.
    os << "[";
    bool first = true;
    for (const Merged &m : merged) {
        os << (first ? "\n" : ",\n") << "{\"name\": \""
           << json::escape(m.event.name)
           << "\", \"cat\": \"otft\", \"ph\": \"X\", \"pid\": 1"
           << ", \"tid\": " << m.tid << ", \"ts\": ";
        writeMicros(os, m.event.startNs - epoch_ns);
        os << ", \"dur\": ";
        writeMicros(os, m.event.endNs - m.event.startNs);
        os << "}";
        first = false;
    }
    os << "\n]\n";
    if (!merged.empty())
        inform("trace: wrote ", merged.size(), " events to ", path);
}

std::int64_t
epochNs()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.epochNs;
}

std::size_t
eventCount()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const std::uint64_t gen = r.generation.load(std::memory_order_relaxed);
    std::size_t count = 0;
    for (const auto &state : r.threads) {
        std::lock_guard<std::mutex> state_lock(state->eventsMutex);
        if (state->eventsGeneration == gen)
            count += state->events.size();
    }
    return count;
}

void
recordInstant(const char *name)
{
    if (!collecting())
        return;
    const std::int64_t now_ns = stats::monotonicNowNs();
    detail::recordEvent(name, now_ns, now_ns);
}

const std::string &
currentLabel()
{
    static const std::string none;
    return t_state != nullptr ? t_state->label : none;
}

void
setThreadName(const char *name)
{
    t_role = name;
}

BusyScope::BusyScope()
{
    if ((detail::consumers() & detail::Profiler) == 0)
        return;
    busy = &threadState().busy;
    busy->store(true, std::memory_order_relaxed);
}

BusyScope::~BusyScope()
{
    if (busy)
        busy->store(false, std::memory_order_relaxed);
}

void
sampleThreads(const std::function<void(const ThreadSample &)> &visit)
{
    // One reusable key buffer: one string build per sampled stack.
    thread_local std::string key;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto &state : r.threads) {
        if (!state->alive.load(std::memory_order_relaxed))
            continue;
        ThreadSample sample;
        sample.thread = state->serial;
        sample.role = state->role;
        sample.busy = state->busy.load(std::memory_order_relaxed);
        key.clear();
        {
            std::unique_lock<std::mutex> frames(state->framesMutex,
                                                std::try_to_lock);
            sample.dropped = !frames.owns_lock();
            if (!sample.dropped && state->depth > 0) {
                key.assign(state->role);
                for (std::size_t d = 0;
                     d < std::min(state->depth, maxDepth); ++d)
                    key.append(";").append(state->frames[d]);
                if (state->depth > maxDepth)
                    key.append(";(deep)");
            }
        }
        sample.stack = &key;
        visit(sample);
    }
}

void
Scope::addFrame(std::string_view text)
{
    ThreadState &s = threadState();
    std::lock_guard<std::mutex> lock(s.framesMutex);
    if (s.depth < maxDepth) {
        // Copy into the preallocated slot, sanitizing separators.
        std::string &slot = s.frames[s.depth];
        slot.clear();
        for (const char ch : text.substr(0, maxLabel)) {
            const unsigned char c = static_cast<unsigned char>(ch);
            slot.push_back(c == ';' || std::isspace(c) || c < 0x20 ? '_'
                                                                   : ch);
        }
    }
    ++s.depth; // deeper pushes still count (popped in pairs)
    ++frames_;
}

void
Scope::pushLabel(const std::string &label)
{
    const unsigned on = detail::consumers();
    if ((on & detail::Profiler) != 0)
        addFrame(label);
    if ((on & detail::Diag) != 0) {
        std::string &context = threadState().label;
        labelMark_ = context.size();
        if (!context.empty())
            context.push_back('/');
        context.append(label);
    }
}

void
Scope::pop()
{
    ThreadState &s = threadState();
    if (labelMark_ != noLabel)
        s.label.resize(labelMark_);
    if (frames_ == 0)
        return;
    std::lock_guard<std::mutex> lock(s.framesMutex);
    s.depth -= std::min<std::size_t>(s.depth, frames_);
}

} // namespace otft::trace
