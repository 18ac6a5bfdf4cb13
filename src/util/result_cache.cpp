#include "util/result_cache.hpp"

#include <cstdio>
#include <cstring>

#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::cache {

namespace {

stats::Counter &
statHits()
{
    static stats::Counter &c =
        stats::counter("cache.hits", "result-cache lookups that hit");
    return c;
}

stats::Counter &
statMisses()
{
    static stats::Counter &c = stats::counter(
        "cache.misses", "result-cache lookups that missed");
    return c;
}

std::string
compositeKey(const std::string &domain, std::uint64_t key)
{
    return domain + ":" + hexDigest(key);
}

} // namespace

std::string
hexDigest(std::uint64_t digest)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    return hex;
}

KeyHasher &
KeyHasher::add(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        state ^= bytes[i];
        state *= 1099511628211ull; // FNV prime
    }
    return *this;
}

KeyHasher &
KeyHasher::add(double v)
{
    if (v == 0.0)
        v = 0.0; // collapse -0.0 and +0.0 to one key
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return add(&bits, sizeof(bits));
}

KeyHasher &
KeyHasher::add(std::uint64_t v)
{
    return add(&v, sizeof(v));
}

KeyHasher &
KeyHasher::add(std::int64_t v)
{
    return add(&v, sizeof(v));
}

KeyHasher &
KeyHasher::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    return add(s.data(), s.size());
}

KeyHasher &
KeyHasher::add(const std::vector<double> &vs)
{
    add(static_cast<std::uint64_t>(vs.size()));
    for (double v : vs)
        add(v);
    return *this;
}

ResultCache::ResultCache() = default;

ResultCache &
ResultCache::instance()
{
    static ResultCache cache;
    return cache;
}

bool
ResultCache::lookup(const std::string &domain, std::uint64_t key,
                    std::vector<double> &out)
{
    OTFT_TRACE_SCOPE("cache.lookup");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries.find(compositeKey(domain, key));
    if (it == entries.end()) {
        ++statMisses();
        trace::recordInstant("cache.miss");
        return false;
    }
    out = it->second;
    ++statHits();
    trace::recordInstant("cache.hit");
    return true;
}

void
ResultCache::store(const std::string &domain, std::uint64_t key,
                   std::vector<double> values)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Deterministic producers always store the same payload;
    // overwrite keeps the cache correct even if a producer is
    // versioned without a salt bump.
    entries[compositeKey(domain, key)] = std::move(values);
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries.clear();
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries.size();
}

bool
lookup(const std::string &domain, std::uint64_t key,
       std::vector<double> &out)
{
    return ResultCache::instance().lookup(domain, key, out);
}

void
store(const std::string &domain, std::uint64_t key,
      std::vector<double> values)
{
    ResultCache::instance().store(domain, key, std::move(values));
}

} // namespace otft::cache
