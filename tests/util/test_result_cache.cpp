/**
 * @file
 * Unit tests for the content-addressed in-memory memo: key hashing,
 * store/lookup round-trips, and its timeline events.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/result_cache.hpp"
#include "util/trace.hpp"

namespace otft::cache {
namespace {

/**
 * The cache under test is the process-wide singleton; each test
 * starts and ends empty so the other test_util suites never see
 * leftovers.
 */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { ResultCache::instance().clear(); }

    void
    TearDown() override
    {
        ResultCache::instance().clear();
        if (!tempDir.empty())
            std::filesystem::remove_all(tempDir);
    }

    /** A fresh per-test scratch directory. */
    std::string
    makeTempDir(const std::string &tag)
    {
        const auto dir = std::filesystem::temp_directory_path() /
                         ("otft_cache_test_" + tag);
        std::filesystem::remove_all(dir);
        tempDir = dir.string();
        return tempDir;
    }

    std::string tempDir;
};

TEST_F(ResultCacheTest, KeyHasherSeparatesInputs)
{
    const auto digest_of = [](auto &&fill) {
        KeyHasher h;
        fill(h);
        return h.digest();
    };
    const std::uint64_t a =
        digest_of([](KeyHasher &h) { h.add("salt").add(1.0); });
    const std::uint64_t b =
        digest_of([](KeyHasher &h) { h.add("salt").add(2.0); });
    const std::uint64_t c =
        digest_of([](KeyHasher &h) { h.add("tlas").add(1.0); });
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(b, c);

    // Same content, same digest.
    EXPECT_EQ(digest_of([](KeyHasher &h) { h.add("salt").add(1.0); }),
              a);
}

TEST_F(ResultCacheTest, KeyHasherNormalizesNegativeZero)
{
    KeyHasher pos, neg;
    pos.add(0.0);
    neg.add(-0.0);
    EXPECT_EQ(pos.digest(), neg.digest());
}

TEST_F(ResultCacheTest, KeyHasherLengthPrefixPreventsSplicing)
{
    // "ab" + "c" must not collide with "a" + "bc".
    KeyHasher split_a, split_b;
    split_a.add("ab").add("c");
    split_b.add("a").add("bc");
    EXPECT_NE(split_a.digest(), split_b.digest());

    // Vector boundaries are prefixed the same way.
    KeyHasher vec_a, vec_b;
    vec_a.add(std::vector<double>{1.0, 2.0}).add(
        std::vector<double>{3.0});
    vec_b.add(std::vector<double>{1.0}).add(
        std::vector<double>{2.0, 3.0});
    EXPECT_NE(vec_a.digest(), vec_b.digest());
}

TEST_F(ResultCacheTest, StoreThenLookupRoundTrips)
{
    auto &c = ResultCache::instance();
    const std::vector<double> payload = {1.5, -2.25, 3.0e-300};
    c.store("test.domain", 42, payload);

    std::vector<double> out;
    ASSERT_TRUE(c.lookup("test.domain", 42, out));
    EXPECT_EQ(out, payload);

    // Different key or domain: miss.
    EXPECT_FALSE(c.lookup("test.domain", 43, out));
    EXPECT_FALSE(c.lookup("other.domain", 42, out));
}

TEST_F(ResultCacheTest, StoreOverwritesExistingEntry)
{
    auto &c = ResultCache::instance();
    c.store("test.domain", 7, {1.0});
    c.store("test.domain", 7, {2.0});
    EXPECT_EQ(c.size(), 1u);
    std::vector<double> out;
    ASSERT_TRUE(c.lookup("test.domain", 7, out));
    EXPECT_EQ(out, std::vector<double>({2.0}));
}

TEST_F(ResultCacheTest, FreeFunctionsUseTheSingleton)
{
    store("free.fn", 5, {5.5});
    std::vector<double> out;
    EXPECT_TRUE(lookup("free.fn", 5, out));
    EXPECT_EQ(out, std::vector<double>({5.5}));
    EXPECT_EQ(ResultCache::instance().size(), 1u);
}

TEST_F(ResultCacheTest, TimelineRecordsHitAndMissEvents)
{
    const std::string path = makeTempDir("trace") + "/timeline.json";
    std::filesystem::create_directories(tempDir);
    auto &c = ResultCache::instance();

    trace::start(path);
    std::vector<double> out;
    const std::size_t base = trace::eventCount();
    EXPECT_FALSE(c.lookup("t", 1, out)); // miss (+ lookup span)
    const std::size_t after_miss = trace::eventCount();
    EXPECT_GE(after_miss - base, 2u);

    c.store("t", 1, {1.0});
    EXPECT_TRUE(c.lookup("t", 1, out)); // hit (+ lookup span)
    const std::size_t after_hit = trace::eventCount();
    EXPECT_GE(after_hit - after_miss, 2u);

    trace::stop();

    // The emitted timeline names the cache decisions.
    std::ifstream is(path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("cache.miss"), std::string::npos);
    EXPECT_NE(text.find("cache.hit"), std::string::npos);
}

TEST_F(ResultCacheTest, NoTimelineEventsWhenNotCollecting)
{
    ASSERT_FALSE(trace::collecting());
    auto &c = ResultCache::instance();
    std::vector<double> out;
    const std::size_t before = trace::eventCount();
    c.store("quiet", 1, {1.0});
    EXPECT_TRUE(c.lookup("quiet", 1, out));
    EXPECT_EQ(trace::eventCount(), before);
}

} // namespace
} // namespace otft::cache
