/** @file Unit tests for util/trace. */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "util/diag.hpp"
#include "util/json.hpp"
#include "util/profiler.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft {
namespace {

void
inner()
{
    OTFT_TRACE_SCOPE("test.span.inner");
}

void
outer()
{
    OTFT_TRACE_SCOPE("test.span.outer");
    inner();
    inner();
}

TEST(Trace, NestedSpansAggregateIntoRegistry)
{
    stats::Accumulator &outer_acc =
        stats::accumulator("time.test.span.outer");
    stats::Accumulator &inner_acc =
        stats::accumulator("time.test.span.inner");
    outer_acc.reset();
    inner_acc.reset();

    outer();

    EXPECT_EQ(outer_acc.count(), 1u);
    EXPECT_EQ(inner_acc.count(), 2u);
    // Inclusive timing: the parent contains its children.
    EXPECT_GE(outer_acc.sum(), inner_acc.sum());
}

TEST(Trace, DisabledTracingHasNoSideEffects)
{
    stats::Accumulator &outer_acc =
        stats::accumulator("time.test.span.outer");
    stats::Accumulator &inner_acc =
        stats::accumulator("time.test.span.inner");
    outer_acc.reset();
    inner_acc.reset();

    stats::Registry::instance().setEnabled(false);
    outer();
    stats::Registry::instance().setEnabled(true);

    EXPECT_EQ(outer_acc.count(), 0u);
    EXPECT_EQ(inner_acc.count(), 0u);
    EXPECT_FALSE(trace::collecting());
    EXPECT_EQ(trace::eventCount(), 0u);
}

TEST(Trace, TimelineCollectionWritesChromeTraceJson)
{
    const std::string path = "test_trace_out.json";

    trace::start(path);
    EXPECT_TRUE(trace::collecting());
    outer();
    EXPECT_EQ(trace::eventCount(), 3u);
    trace::stop();
    EXPECT_FALSE(trace::collecting());
    EXPECT_EQ(trace::eventCount(), 0u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    while (!text.empty() && std::isspace(text.back()))
        text.pop_back();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.back(), ']');
    EXPECT_NE(text.find("\"test.span.outer\""), std::string::npos);
    EXPECT_NE(text.find("\"test.span.inner\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"dur\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Trace, CollectionWorksEvenWhenStatsDisabled)
{
    stats::Accumulator &outer_acc =
        stats::accumulator("time.test.span.outer");
    outer_acc.reset();
    const std::string path = "test_trace_out2.json";

    stats::Registry::instance().setEnabled(false);
    trace::start(path);
    outer();
    EXPECT_EQ(trace::eventCount(), 3u);
    trace::stop();
    stats::Registry::instance().setEnabled(true);

    // Timeline captured the spans, but the registry stayed untouched.
    EXPECT_EQ(outer_acc.count(), 0u);
    std::remove(path.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Trace, ScopeWithAccumulatorSamplesOncePerScope)
{
    stats::Accumulator &a = stats::accumulator("test.scope.acc");
    a.reset();
    {
        trace::Scope scope("test.scope", &a);
    }
    EXPECT_EQ(a.count(), 1u);
    EXPECT_GE(a.sum(), 0.0);

    // Stats disabled: no clock reads, no samples.
    stats::Registry::instance().setEnabled(false);
    {
        trace::Scope scope("test.scope", &a);
    }
    stats::Registry::instance().setEnabled(true);
    EXPECT_EQ(a.count(), 1u);
}

TEST(Trace, TimestampsKeepNanosecondResolutionPastOneSecond)
{
    const std::string path = "test_trace_ts.json";
    trace::start(path);
    const std::int64_t t = trace::epochNs() + 1'500'000'123;
    trace::detail::recordEvent("test.late", t, t + 2'000'000'007);
    trace::stop();

    const std::string text = readFile(path);
    EXPECT_NE(text.find("\"ts\": 1500000.123,"), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"dur\": 2000000.007}"), std::string::npos)
        << text;
    const json::Value doc = json::parse(text);
    ASSERT_EQ(doc.asArray().size(), 1u);
    EXPECT_EQ(doc.asArray()[0].number("ts"), 1500000.123);
    std::remove(path.c_str());
}

TEST(Trace, EventNamesAreJsonEscaped)
{
    const std::string path = "test_trace_escape.json";
    trace::start(path);
    trace::recordInstant("test.\"quoted\"\\name");
    trace::stop();

    const json::Value doc = json::parse(readFile(path));
    ASSERT_EQ(doc.asArray().size(), 1u);
    EXPECT_EQ(doc.asArray()[0].string("name"),
              "test.\"quoted\"\\name");
    std::remove(path.c_str());
}

TEST(Trace, ExitedThreadKeepsItsEvents)
{
    const std::string path = "test_trace_exited.json";
    trace::start(path);
    std::thread first([] { OTFT_TRACE_SCOPE("test.exited.first"); });
    first.join();
    // A thread registering later prunes exited threads' states; the
    // first thread's undrained events must survive that.
    std::thread second([] { OTFT_TRACE_SCOPE("test.exited.second"); });
    second.join();
    EXPECT_EQ(trace::eventCount(), 2u);
    trace::stop();

    const json::Value doc = json::parse(readFile(path));
    ASSERT_EQ(doc.asArray().size(), 2u);
    EXPECT_EQ(doc.asArray()[0].string("name"), "test.exited.first");
    EXPECT_EQ(doc.asArray()[1].string("name"), "test.exited.second");
    std::remove(path.c_str());
}

TEST(Trace, OneLabeledScopeFeedsDiagProfilerAndTimeline)
{
    const std::string path = "test_trace_unified.json";
    diag::Collector &collector = diag::Collector::instance();
    collector.reset();
    collector.setEnabled(true);
    prof::Options options;
    options.periodUs = 200;
    ASSERT_TRUE(prof::Profiler::instance().start(options));
    trace::start(path);
    {
        OTFT_TRACE_SCOPE_LABELED("test.unified",
                                 std::string("unit.") + "label");
        EXPECT_EQ(trace::currentLabel(), "unit.label");
        diag::SolveProbe probe(diag::SolveKind::Dc);
        probe.iteration(0, 1.0, 1.0, false);
        probe.finish(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    trace::stop();
    prof::Profiler::instance().stop();
    collector.setEnabled(false);

    EXPECT_EQ(collector.contextStats("unit.label").solves, 1u);
    collector.reset();

    bool sampled = false;
    for (const prof::FoldedStack &f : prof::Profiler::instance().folded())
        sampled = sampled || f.stack == "main;test.unified;unit.label";
    EXPECT_TRUE(sampled);

    const json::Value doc = json::parse(readFile(path));
    ASSERT_EQ(doc.asArray().size(), 1u);
    EXPECT_EQ(doc.asArray()[0].string("name"), "test.unified");
    EXPECT_GE(doc.asArray()[0].number("dur"), 60'000.0);
    std::remove(path.c_str());
}

} // namespace
} // namespace otft
