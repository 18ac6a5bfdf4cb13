/**
 * @file
 * Tier-1 determinism gate for the Monte Carlo characterization: the
 * serialized statistical library must be byte-identical at --jobs 1
 * and --jobs 8, and on a repeat in the same process. The text
 * serializer prints every double at %.17g (round-trip exact), so any
 * task reordering, cross-sample RNG contamination, or
 * non-associative reduction flips bytes and fails the string
 * comparison.
 *
 * The MC fan-out is shrunk (two cells, 2x2 grid, three samples) so
 * the gate stays tier-1 fast; the full-roster run lives in the
 * mc_smoke lane.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "liberty/mc_characterizer.hpp"
#include "liberty/serialize.hpp"
#include "util/parallel.hpp"

namespace otft {
namespace {

liberty::McConfig
smallConfig()
{
    liberty::McConfig config;
    config.samples = 3;
    config.seed = 11;
    config.roster = {"inv", "nand2"};
    config.grid.slewAxis = {8e-6, 32e-6};
    config.grid.loadMultipliers = {1.0, 4.0};
    config.baseName = "mc_determinism";
    return config;
}

/** Serialized triple of the statistical library at a jobs count. */
std::string
statDumpAtJobs(int jobs)
{
    parallel::JobsOverride guard(jobs);
    const liberty::StatLibrary stat =
        liberty::McCharacterizer(smallConfig()).run();
    std::ostringstream out;
    liberty::writeLibrary(out, stat.mean);
    liberty::writeLibrary(out, stat.slow);
    liberty::writeLibrary(out, stat.fast);
    return out.str();
}

TEST(McDeterminism, StatLibraryBytesIdenticalAcrossJobCounts)
{
    const std::string serial = statDumpAtJobs(1);
    const std::string parallel8 = statDumpAtJobs(8);
    EXPECT_EQ(serial, parallel8);
}

TEST(McDeterminism, StatLibraryBytesIdenticalOnRepeat)
{
    // A second run in the same process, after the first has warmed
    // the worker pool and every process-wide registry, must recompute
    // the same bytes: no run-to-run state may leak into a sample.
    const std::string first = statDumpAtJobs(4);
    const std::string second = statDumpAtJobs(4);
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace otft
