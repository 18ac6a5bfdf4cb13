/**
 * @file
 * Content-addressed in-memory memo for deterministic results.
 *
 * Sweeps can ask for the same design point twice in one process (a
 * yield sign-off re-evaluates a config at several corners that share
 * a library); the explorer memoizes those evaluations here under a
 * content hash of everything that can change the answer (library
 * content, STA and exploration settings, the full core config). The
 * stamped `.lib` files (liberty/serialize) are the only on-disk
 * cache; this memo lives and dies with the process.
 *
 * Determinism contract: cached payloads are the exact doubles a cold
 * computation produced. Callers use a hit *as* the result, never as
 * an iteration seed, so cache-warm output is bit-identical to
 * cache-cold output and immune to which parallel task computed the
 * entry first.
 *
 * Thread safety: all public methods lock one internal mutex; the
 * cache is shared freely across the util/parallel worker pool.
 */

#ifndef OTFT_UTIL_RESULT_CACHE_HPP
#define OTFT_UTIL_RESULT_CACHE_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace otft::cache {

/**
 * FNV-1a 64-bit streaming hasher for cache keys. Doubles are hashed
 * by bit pattern (after normalizing -0.0 to +0.0), strings with a
 * length prefix so concatenations cannot collide, and every key
 * should start with a versioned salt ("explorer.point-v1") so a
 * change in the producing algorithm retires stale entries.
 */
class KeyHasher
{
  public:
    KeyHasher &add(const void *data, std::size_t len);
    KeyHasher &add(double v);
    KeyHasher &add(std::uint64_t v);
    KeyHasher &add(std::int64_t v);
    KeyHasher &add(int v) { return add(static_cast<std::int64_t>(v)); }
    KeyHasher &add(bool v) { return add(static_cast<std::int64_t>(v)); }
    KeyHasher &add(const std::string &s);
    KeyHasher &add(const char *s) { return add(std::string(s)); }
    KeyHasher &add(const std::vector<double> &vs);

    /** The accumulated 64-bit digest. */
    std::uint64_t digest() const { return state; }

  private:
    std::uint64_t state = 1469598103934665603ull; // FNV offset basis
};

/** A digest as 16 lowercase hex digits. */
std::string hexDigest(std::uint64_t digest);

/** The process-wide content-addressed memo. */
class ResultCache
{
  public:
    static ResultCache &instance();

    /**
     * Look up `domain` + `key`. On hit the payload is copied into
     * `out`.
     */
    bool lookup(const std::string &domain, std::uint64_t key,
                std::vector<double> &out);

    /** Insert (or overwrite) an entry. */
    void store(const std::string &domain, std::uint64_t key,
               std::vector<double> values);

    /** Drop every entry. */
    void clear();

    /** Current entry count. */
    std::size_t size() const;

  private:
    ResultCache();

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::vector<double>> entries;
};

/** Shorthand accessors on the process-wide instance. */
bool lookup(const std::string &domain, std::uint64_t key,
            std::vector<double> &out);
void store(const std::string &domain, std::uint64_t key,
           std::vector<double> values);

} // namespace otft::cache

#endif // OTFT_UTIL_RESULT_CACHE_HPP
