/**
 * @file
 * Concurrency stress harness for the instrumentation subsystem, the
 * parallel layer and the shared core synthesizer. Every test hammers one shared structure from
 * many threads and then asserts *exact* totals — races that drop or
 * double-count updates fail the assertion, and the data races
 * themselves are caught when this binary runs under ThreadSanitizer
 * (scripts/verify.sh --tsan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "core/blocks.hpp"
#include "core/synthesizer.hpp"
#include "liberty/silicon.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft {
namespace {

constexpr int kThreads = 8;

/** Run fn(t) on kThreads plain std::threads and join them all. */
void
onThreads(const std::function<void(int)> &fn)
{
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&fn, t] { fn(t); });
    for (auto &thread : threads)
        thread.join();
}

TEST(ConcurrencyStress, CounterTotalExactUnderContention)
{
    stats::Counter &counter = stats::counter(
        "test.concurrency.counter", "stress counter");
    counter.reset();

    constexpr std::uint64_t per_thread = 100000;
    onThreads([&](int) {
        for (std::uint64_t i = 0; i < per_thread; ++i)
            ++counter;
    });

    EXPECT_EQ(counter.value(), kThreads * per_thread);
}

TEST(ConcurrencyStress, CounterAddTotalExact)
{
    stats::Counter &counter = stats::counter(
        "test.concurrency.counter_add", "stress counter (+=)");
    counter.reset();

    constexpr std::uint64_t per_thread = 50000;
    onThreads([&](int) {
        for (std::uint64_t i = 0; i < per_thread; ++i)
            counter += 3;
    });

    EXPECT_EQ(counter.value(), kThreads * per_thread * 3);
}

TEST(ConcurrencyStress, AccumulatorMomentsExact)
{
    stats::Accumulator &acc = stats::accumulator(
        "test.concurrency.accumulator", "stress accumulator");
    acc.reset();

    constexpr int per_thread = 20000;
    onThreads([&](int) {
        for (int i = 0; i < per_thread; ++i)
            acc.sample(2.0);
    });

    const auto total =
        static_cast<std::uint64_t>(kThreads) * per_thread;
    EXPECT_EQ(acc.count(), total);
    // Every sample is the same value, so sum/min/max/mean are exact
    // in floating point — any torn or lost update shows up here.
    EXPECT_EQ(acc.sum(), 2.0 * static_cast<double>(total));
    EXPECT_EQ(acc.min(), 2.0);
    EXPECT_EQ(acc.max(), 2.0);
    EXPECT_EQ(acc.mean(), 2.0);
}

TEST(ConcurrencyStress, HistogramSampleCountExact)
{
    stats::Histogram &hist = stats::histogram(
        "test.concurrency.histogram", 0.0, 10.0, 10,
        "stress histogram");
    hist.reset();

    constexpr int per_thread = 20000;
    onThreads([&](int t) {
        for (int i = 0; i < per_thread; ++i)
            hist.sample(static_cast<double>(t) + 0.5);
    });

    const auto total =
        static_cast<std::uint64_t>(kThreads) * per_thread;
    EXPECT_EQ(hist.totalSamples(), total);
    std::uint64_t binned = hist.underflow() + hist.overflow();
    for (std::uint64_t count : hist.binsSnapshot())
        binned += count;
    EXPECT_EQ(binned, total);
    // Each thread hits its own bin with an exact per-thread count.
    const auto bins = hist.binsSnapshot();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(bins[static_cast<std::size_t>(t)],
                  static_cast<std::uint64_t>(per_thread))
            << "bin " << t;
}

TEST(ConcurrencyStress, RegistryFindOrCreateRacesYieldOneNode)
{
    stats::Registry &registry = stats::Registry::instance();
    // Nodes live for the process: a repeated run finds this one.
    const std::uint64_t before =
        registry.has("test.concurrency.race_node")
            ? stats::counter("test.concurrency.race_node").value()
            : 0;
    std::vector<stats::Counter *> seen(kThreads, nullptr);
    onThreads([&](int t) {
        // All threads race to create the same name; the registry must
        // hand every thread the same node.
        stats::Counter &c = stats::counter(
            "test.concurrency.race_node", "created by whoever wins");
        seen[static_cast<std::size_t>(t)] = &c;
        ++c;
    });
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
    EXPECT_EQ(seen[0]->value() - before,
              static_cast<std::uint64_t>(kThreads));
    EXPECT_TRUE(registry.has("test.concurrency.race_node"));
}

TEST(ConcurrencyStress, DumpWhileWritingStaysValidJson)
{
    stats::Counter &counter = stats::counter(
        "test.concurrency.dump_target", "incremented during dumps");
    counter.reset();

    std::atomic<bool> done{false};
    std::thread writer([&] {
        while (!done.load(std::memory_order_relaxed))
            ++counter;
    });
    // Wait for the writer to be mid-stream before dumping (on a
    // single-core box it may not be scheduled immediately).
    while (counter.value() == 0)
        std::this_thread::yield();

    // Dumps taken mid-write must each be a complete, parseable
    // document: the registry snapshots under its lock.
    for (int rep = 0; rep < 50; ++rep) {
        std::ostringstream os;
        stats::Registry::instance().dumpJson(os);
        const json::Value doc = json::parse(os.str());
        EXPECT_TRUE(doc.isObject());
    }
    done = true;
    writer.join();
    EXPECT_GT(counter.value(), 0u);
}

TEST(ConcurrencyStress, ConcurrentSpansMergeIntoValidTimeline)
{
    const std::string path = "test_concurrency_trace.json";
    trace::start(path);

    constexpr int spans_per_thread = 200;
    onThreads([&](int) {
        for (int i = 0; i < spans_per_thread; ++i) {
            OTFT_TRACE_SCOPE("test.concurrency.span");
        }
    });

    // Plus one span from the main thread so its tid shows up too.
    {
        OTFT_TRACE_SCOPE("test.concurrency.main_span");
    }
    trace::stop();

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    const json::Value doc = json::parse(is);
    ASSERT_TRUE(doc.isArray());
    const auto &events = doc.asArray();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads * spans_per_thread) +
                  1);

    // Every event is a complete record; the emitting threads keep
    // distinct tids; timestamps are merged in nondecreasing order.
    std::set<double> tids;
    double prev_ts = -1e300;
    for (const auto &event : events) {
        EXPECT_EQ(event.string("ph"), "X");
        EXPECT_GE(event.number("dur", -1.0), 0.0);
        tids.insert(event.number("tid"));
        EXPECT_GE(event.number("ts"), prev_ts);
        prev_ts = event.number("ts");
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads) + 1);
    std::remove(path.c_str());
}

TEST(ConcurrencyStress, ParallelForFromManyThreadsAtOnce)
{
    parallel::JobsOverride pin(4);
    constexpr int loops = 8;
    constexpr std::size_t n = 2000;
    std::vector<std::atomic<std::uint64_t>> totals(kThreads);
    // Several threads submit batches to the shared pool concurrently;
    // each must see exactly its own n indices.
    onThreads([&](int t) {
        for (int rep = 0; rep < loops; ++rep)
            parallel::parallelFor(n, [&, t](std::size_t) {
                totals[static_cast<std::size_t>(t)].fetch_add(
                    1, std::memory_order_relaxed);
            });
    });
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(totals[static_cast<std::size_t>(t)].load(),
                  static_cast<std::uint64_t>(loops) * n)
            << "submitter " << t;
}

TEST(ConcurrencyStress, NestedRegionOnCallerStaysOnCaller)
{
    // The calling thread drains its own share of the outer region;
    // a region it opens from there must run inline, exactly like one
    // opened on a pool worker. The caller's outer index sleeps so the
    // helper finishes its own index and sits idle, ready to steal any
    // inner batch the caller were to publish.
    parallel::JobsOverride pin(2);
    const auto caller = std::this_thread::get_id();
    constexpr int reps = 10;
    constexpr std::size_t inner_n = 64;
    for (int rep = 0; rep < reps; ++rep) {
        std::atomic<int> hops{0};
        parallel::parallelFor(2, [&](std::size_t) {
            const auto opener = std::this_thread::get_id();
            if (opener == caller)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            parallel::parallelFor(inner_n, [&](std::size_t) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(20));
                if (std::this_thread::get_id() != opener)
                    ++hops;
            });
        });
        EXPECT_EQ(hops.load(), 0) << "rep " << rep;
    }
}

TEST(ConcurrencyStress, ScopesAggregateExactCounts)
{
    stats::Accumulator &acc = stats::accumulator(
        "time.test.concurrency.timed", "stress span accumulator");
    acc.reset();

    constexpr int per_thread = 500;
    onThreads([&](int) {
        for (int i = 0; i < per_thread; ++i) {
            OTFT_TRACE_SCOPE("test.concurrency.timed");
        }
    });

    EXPECT_EQ(acc.count(), static_cast<std::uint64_t>(kThreads) *
                               per_thread);
    EXPECT_GE(acc.min(), 0.0);
}

/** Front-end 1-2 x back-end 3-4 cores, each listed twice. */
std::vector<arch::CoreConfig>
contendedGrid()
{
    std::vector<arch::CoreConfig> grid;
    for (int copy = 0; copy < 2; ++copy)
        for (int fe = 1; fe <= 2; ++fe)
            for (int be = 3; be <= 4; ++be) {
                arch::CoreConfig config = arch::baselineConfig();
                config.fetchWidth = fe;
                config.aluPipes = be - config.memPipes - config.branchPipes;
                grid.push_back(config);
            }
    return grid;
}

TEST(ConcurrencyStress, SharedSynthesizerTimesEachBlockOnce)
{
    const liberty::CellLibrary silicon = liberty::makeSiliconLibrary();
    const std::vector<arch::CoreConfig> grid = contendedGrid();

    // The distinct (block content, stage count) pairs of the grid:
    // each region depends on front-end width only, on ALU pipes only,
    // or on neither, so the 8 tasks share most of their 64 blocks.
    std::set<std::pair<std::uint64_t, int>> distinct;
    for (const arch::CoreConfig &config : grid)
        for (int r = 0; r < arch::numRegions; ++r) {
            const auto region = static_cast<arch::Region>(r);
            distinct.emplace(
                core::buildRegionBlock(region, config).contentDigest(),
                config.stagesIn(region));
        }

    stats::Counter &hits = stats::counter("synth.region_cache.hits");
    stats::Counter &misses = stats::counter("synth.region_cache.misses");
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t misses_before = misses.value();

    core::CoreSynthesizer shared(silicon);
    const std::vector<core::CoreTiming> timings = [&] {
        parallel::JobsOverride pin(kThreads);
        return parallel::orderedMap<core::CoreTiming>(
            grid.size(),
            [&](std::size_t k) { return shared.synthesize(grid[k]); });
    }();

    const std::uint64_t computed = misses.value() - misses_before;
    EXPECT_EQ(computed, distinct.size());
    EXPECT_EQ(computed + (hits.value() - hits_before),
              grid.size() * arch::numRegions);

    for (std::size_t k = 0; k < grid.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "point " << k);
        const core::CoreTiming fresh =
            core::CoreSynthesizer(silicon).synthesize(grid[k]);
        const core::CoreTiming &got = timings[k];
        EXPECT_EQ(got.clockPeriod, fresh.clockPeriod);
        EXPECT_EQ(got.frequency, fresh.frequency);
        EXPECT_EQ(got.area, fresh.area);
        EXPECT_EQ(got.critical, fresh.critical);
        EXPECT_EQ(got.complexAluStages, fresh.complexAluStages);
        ASSERT_EQ(got.regions.size(), fresh.regions.size());
        for (std::size_t i = 0; i < got.regions.size(); ++i) {
            EXPECT_EQ(got.regions[i].region, fresh.regions[i].region);
            EXPECT_EQ(got.regions[i].stages, fresh.regions[i].stages);
            EXPECT_EQ(got.regions[i].clockPeriod,
                      fresh.regions[i].clockPeriod);
            EXPECT_EQ(got.regions[i].area, fresh.regions[i].area);
            EXPECT_EQ(got.regions[i].cells, fresh.regions[i].cells);
        }
    }
}

TEST(ConcurrencyStress, SharedSynthesizerFatalReachesEveryWaiter)
{
    const liberty::CellLibrary silicon = liberty::makeSiliconLibrary();
    // Zero decode stages: the pipeliner rejects the block, and every
    // task that asked for it must see the error, not a value.
    arch::CoreConfig bad = arch::baselineConfig();
    bad.stagesIn(arch::Region::Decode) = 0;

    core::CoreSynthesizer shared(silicon);
    std::atomic<int> failed{0};
    parallel::JobsOverride pin(kThreads);
    parallel::parallelFor(kThreads, [&](std::size_t) {
        try {
            (void)shared.synthesize(bad);
        } catch (const FatalError &) {
            ++failed;
        }
    });
    EXPECT_EQ(failed.load(), kThreads);
}

} // namespace
} // namespace otft
