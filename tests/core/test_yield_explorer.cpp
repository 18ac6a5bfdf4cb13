/** @file Tests for the yield-aware architecture explorer. */

#include <gtest/gtest.h>

#include "arch/config.hpp"
#include "core/yield_explorer.hpp"
#include "liberty/silicon.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"
#include "workload/trace.hpp"

namespace otft::core {
namespace {

/** Silicon with synthetic 2% corners: cheap and deterministic. */
liberty::StatLibrary
testCorners()
{
    return liberty::scaledCorners(liberty::makeSiliconLibrary(), 0.02,
                                  3.0, "silicon_yield_test");
}

YieldExplorerConfig
quickConfig(double target_yield = 0.99)
{
    YieldExplorerConfig config;
    config.targetYield = target_yield;
    config.explorer.instructions = 8000;
    return config;
}

TEST(YieldExplorer, EvaluateDeratesFrequencyAtHighYield)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto point = explorer.evaluate(arch::baselineConfig());
    EXPECT_GT(point.nominal.performance, 0.0);
    EXPECT_GT(point.periodSigma, 0.0);
    EXPECT_GT(point.slowPeriod, point.nominal.timing.clockPeriod);
    // 99% yield costs frequency relative to the mean process.
    EXPECT_LT(point.yieldFrequency, point.nominal.timing.frequency);
    EXPECT_GT(point.yieldFrequency, 0.0);
    EXPECT_NEAR(point.yieldPerformance,
                point.nominal.meanIpc * point.yieldFrequency,
                point.yieldPerformance * 1e-9);
    EXPECT_DOUBLE_EQ(point.targetYield, 0.99);
}

TEST(YieldExplorer, MedianYieldMatchesMeanProcess)
{
    // At 50% target yield the sign-off clock is the mean-process
    // clock: Phi^-1(0.5) = 0.
    YieldExplorer explorer(testCorners(), quickConfig(0.5));
    const auto point = explorer.evaluate(arch::baselineConfig());
    EXPECT_NEAR(point.yieldFrequency, point.nominal.timing.frequency,
                point.yieldFrequency * 1e-9);
}

TEST(YieldExplorer, YieldCurveIsMonotone)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto curve = explorer.yieldCurve(arch::baselineConfig(), 17);
    ASSERT_EQ(curve.points.size(), 17u);
    EXPECT_GT(curve.meanIpc, 0.0);
    for (std::size_t i = 1; i < curve.points.size(); ++i) {
        // Increasing frequency, non-increasing yield.
        EXPECT_GT(curve.points[i].frequency,
                  curve.points[i - 1].frequency);
        EXPECT_LE(curve.points[i].yield, curve.points[i - 1].yield);
    }
    // The sweep spans both tails of the Gaussian.
    EXPECT_GT(curve.points.front().yield, 0.995);
    EXPECT_LT(curve.points.back().yield, 0.005);
}

TEST(YieldExplorer, CurveInterpolationInvertsItself)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto curve = explorer.yieldCurve(arch::baselineConfig(), 33);
    const double f99 = curve.frequencyAtYield(0.99);
    ASSERT_GT(f99, 0.0);
    EXPECT_NEAR(curve.yieldAtFrequency(f99), 0.99, 0.01);
    // Analytic cross-check against the Gaussian period model.
    EXPECT_LT(f99, 1.0 / curve.meanPeriod);
}

TEST(YieldExplorer, DepthSweepSignsOffEveryPoint)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto sweep = explorer.depthSweepAtYield(11);
    ASSERT_EQ(sweep.points.size(), 3u); // stages 9, 10, 11
    EXPECT_DOUBLE_EQ(sweep.targetYield, 0.99);
    for (const YieldDesignPoint &p : sweep.points) {
        EXPECT_GT(p.yieldFrequency, 0.0);
        EXPECT_LT(p.yieldFrequency, p.nominal.timing.frequency);
        EXPECT_GT(p.slowPeriod, p.nominal.timing.clockPeriod);
    }
}

TEST(YieldExplorer, WidthSweepShapeAndSignOff)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto sweep = explorer.widthSweepAtYield(1, 2, 3, 4);
    ASSERT_EQ(sweep.points.size(), 2u);    // be 3..4
    ASSERT_EQ(sweep.points[0].size(), 2u); // fe 1..2
    for (const auto &row : sweep.points)
        for (const YieldDesignPoint &p : row) {
            EXPECT_GT(p.yieldPerformance, 0.0);
            EXPECT_LE(p.yieldPerformance, p.nominal.performance);
        }
}

TEST(YieldExplorer, PointMemoHitsExactlyTheRepeatedEvaluations)
{
    // The explorer.point memo may serve only an evaluation the sweeps
    // request twice, and every other evaluation simulates. Downstream
    // cycle totals (perfbench's yield_signoff check) count simulated
    // points only, so they depend on exactly this hit pattern.
    cache::ResultCache::instance().clear();
    YieldExplorerConfig config = quickConfig();
    config.explorer.instructions = 2000;
    YieldExplorer explorer(testCorners(), config);

    const auto counters = [] {
        return stats::Registry::instance().counterSnapshot();
    };
    auto before = counters();
    // Depth 9..10 on the baseline widths, then front end 1 x back
    // end 3-4, each at the mean and slow corners: the 1x3 width point
    // is the 9-stage baseline again, one repeat per corner.
    (void)explorer.depthSweepAtYield(10);
    (void)explorer.widthSweepAtYield(1, 1, 3, 4);
    auto after = counters();

    const std::uint64_t hits = after["cache.hits"] - before["cache.hits"];
    const std::uint64_t evaluated = after["explorer.points.evaluated"] -
                                    before["explorer.points.evaluated"];
    const std::uint64_t instructions =
        after["arch.instructions.simulated"] -
        before["arch.instructions.simulated"];
    EXPECT_EQ(evaluated, 2u * (2u + 2u));
    EXPECT_EQ(hits, 2u);
    // Each simulated point commits `instructions` per workload, plus
    // at most a commit group's overshoot.
    const std::uint64_t per_point = config.explorer.instructions *
                                    workload::paperWorkloads().size();
    EXPECT_EQ(evaluated - hits, instructions / per_point);
    cache::ResultCache::instance().clear();
}

} // namespace
} // namespace otft::core
