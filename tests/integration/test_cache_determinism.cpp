/**
 * @file
 * End-to-end determinism of the explorer.point memo: a cache-warm
 * evaluation must be byte-identical to the cache-cold one that
 * populated it and to an uncached one. Every double is printed with
 * %.17g, so a single flipped bit fails the compare.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "arch/config.hpp"
#include "core/explorer.hpp"
#include "liberty/silicon.hpp"
#include "util/result_cache.hpp"

namespace otft {
namespace {

void
append(std::string &out, const char *label, double v)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%s=%.17g\n", label, v);
    out += buffer;
}

void
append(std::string &out, const char *label,
       const std::vector<double> &values)
{
    out += label;
    char buffer[40];
    for (double v : values) {
        std::snprintf(buffer, sizeof(buffer), " %.17g", v);
        out += buffer;
    }
    out += "\n";
}

/** Full-precision text dump of one evaluated design point. */
std::string
dumpPoint(const core::DesignPoint &point)
{
    std::string out;
    out += "point fe=" + std::to_string(point.config.fetchWidth) +
           " alu=" + std::to_string(point.config.aluPipes) + "\n";
    append(out, "frequency", point.timing.frequency);
    append(out, "area", point.timing.area);
    append(out, "ipc", point.ipc);
    append(out, "meanIpc", point.meanIpc);
    append(out, "performance", point.performance);
    return out;
}

TEST(CacheDeterminism, ExplorerPointColdAndWarmRunsAreByteIdentical)
{
    auto &cache = cache::ResultCache::instance();
    cache.clear();
    const liberty::CellLibrary silicon =
        liberty::makeSiliconLibrary();

    const auto evaluate = [&silicon] {
        core::ExplorerConfig config;
        config.instructions = 2000;
        core::ArchExplorer explorer(silicon, config);
        return dumpPoint(explorer.evaluate(arch::baselineConfig()));
    };

    const std::string cold = evaluate();
    ASSERT_GT(cache.size(), 0u)
        << "cold evaluation should have populated the cache";
    const std::string warm = evaluate();
    EXPECT_FALSE(cold.empty());
    EXPECT_EQ(cold, warm);

    core::ExplorerConfig uncached_config;
    uncached_config.instructions = 2000;
    uncached_config.useCache = false;
    core::ArchExplorer uncached(silicon, uncached_config);
    EXPECT_EQ(dumpPoint(uncached.evaluate(arch::baselineConfig())),
              cold);
    cache.clear();
}

} // namespace
} // namespace otft
