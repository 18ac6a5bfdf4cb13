#include "util/result_cache.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::cache {

namespace {

/** Schema tag of the persisted cache file. */
constexpr const char *cacheSchema = "otft-result-cache-1";
constexpr const char *cacheFileName = "result_cache.json";

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

stats::Counter &
statEvictions()
{
    static stats::Counter &c = stats::counter(
        "cache.evictions", "result-cache entries evicted (LRU)");
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

void
ResultCache::setEnabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = enabled;
}

bool
ResultCache::enabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return enabled_;
}

void
ResultCache::setCapacity(std::size_t max_entries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = max_entries > 0 ? max_entries : 1;
    evictLocked();
}

void
ResultCache::setDirectory(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    dir_ = dir;
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("result_cache: cannot create cache dir '", dir_,
              "': ", ec.message());
    loadLocked();
}

const std::string &
ResultCache::directory() const
{
    // dir_ only changes under the lock, but returning a reference is
    // safe: configuration happens once at session start.
    return dir_;
}

bool
ResultCache::lookup(const std::string &domain, std::uint64_t key,
                    std::vector<double> &out)
{
    OTFT_TRACE_SCOPE("cache.lookup");
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) {
        ++statMisses();
        trace::recordInstant("cache.miss");
        return false;
    }
    const auto it = entries.find(compositeKey(domain, key));
    if (it == entries.end()) {
        ++statMisses();
        trace::recordInstant("cache.miss");
        return false;
    }
    // Refresh LRU position.
    lru.splice(lru.begin(), lru, it->second.lruPos);
    out = it->second.values;
    ++statHits();
    trace::recordInstant("cache.hit");
    return true;
}

void
ResultCache::store(const std::string &domain, std::uint64_t key,
                   std::vector<double> values)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_)
        return;
    const std::string composite = compositeKey(domain, key);
    const auto it = entries.find(composite);
    if (it != entries.end()) {
        // Deterministic producers always store the same payload;
        // overwrite keeps the cache correct even if a producer is
        // versioned without a salt bump.
        it->second.values = std::move(values);
        lru.splice(lru.begin(), lru, it->second.lruPos);
        return;
    }
    lru.push_front(composite);
    entries.emplace(composite,
                    Entry{std::move(values), lru.begin()});
    evictLocked();
}

void
ResultCache::evictLocked()
{
    while (entries.size() > capacity_) {
        entries.erase(lru.back());
        lru.pop_back();
        ++statEvictions();
        trace::recordInstant("cache.evict");
    }
}

void
ResultCache::loadLocked()
{
    const std::string path =
        (std::filesystem::path(dir_) / cacheFileName).string();
    std::ifstream is(path);
    if (!is)
        return; // no persisted cache yet
    std::stringstream buffer;
    buffer << is.rdbuf();

    // A mangled cache file must never abort a run: the cache is an
    // optimization, so parse failures log and behave as a miss.
    json::Value doc;
    try {
        doc = json::parse(buffer.str());
    } catch (const FatalError &e) {
        warn("result_cache: ignoring corrupt ", path, " (", e.what(),
             ")");
        return;
    }
    try {
        if (!doc.isObject() ||
            doc.string("schema") != cacheSchema) {
            warn("result_cache: ignoring ", path,
                 " (unrecognized schema)");
            return;
        }
        if (!doc.has("entries"))
            return;
        std::size_t loaded = 0;
        for (const auto &[composite, value] :
             doc.at("entries").asObject()) {
            if (!value.isArray())
                continue; // skip malformed entries, keep the rest
            std::vector<double> values;
            bool ok = true;
            for (const auto &item : value.asArray()) {
                if (!item.isNumber()) {
                    ok = false;
                    break;
                }
                values.push_back(item.asNumber());
            }
            if (!ok)
                continue;
            lru.push_front(composite);
            entries.emplace(composite,
                            Entry{std::move(values), lru.begin()});
            ++loaded;
        }
        evictLocked();
        static stats::Counter &stat_loaded = stats::counter(
            "cache.disk_loaded", "result-cache entries loaded from disk");
        stat_loaded += loaded;
        inform("result_cache: loaded ", loaded, " entries from ", path);
    } catch (const FatalError &e) {
        warn("result_cache: ignoring malformed ", path, " (", e.what(),
             ")");
    }
}

void
ResultCache::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dir_.empty())
        return;
    const std::string path =
        (std::filesystem::path(dir_) / cacheFileName).string();
    std::ofstream os(path);
    if (!os) {
        warn("result_cache: cannot write ", path);
        return;
    }
    os << "{\"schema\": \"" << cacheSchema << "\", \"entries\": {";
    bool first = true;
    char buffer[40];
    for (const auto &[composite, entry] : entries) {
        // Non-finite payloads have no JSON spelling; keep them
        // in-memory only rather than corrupting the file.
        bool finite = true;
        for (double v : entry.values)
            finite = finite && std::isfinite(v);
        if (!finite)
            continue;
        os << (first ? "" : ", ") << "\"" << json::escape(composite)
           << "\": [";
        first = false;
        for (std::size_t i = 0; i < entry.values.size(); ++i) {
            // %.17g round-trips binary64 exactly, preserving the
            // bit-identical determinism contract across persistence.
            std::snprintf(buffer, sizeof(buffer), "%.17g",
                          entry.values[i]);
            os << (i ? ", " : "") << buffer;
        }
        os << "]";
    }
    os << "}}\n";
    if (!os)
        warn("result_cache: short write to ", path);
    else
        inform("result_cache: persisted ", entries.size(),
               " entries to ", path);
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries.clear();
    lru.clear();
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
