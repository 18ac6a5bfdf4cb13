/** @file Tests for core synthesis (timing/area per configuration). */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/synthesizer.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "util/logging.hpp"

namespace otft::core {
namespace {

class Synthesis : public ::testing::Test
{
  protected:
    Synthesis() : library(liberty::makeSiliconLibrary()) {}

    liberty::CellLibrary library;
};

TEST_F(Synthesis, BaselineTimingComplete)
{
    CoreSynthesizer synth(library);
    const auto timing = synth.synthesize(arch::baselineConfig());
    EXPECT_GT(timing.frequency, 1e7);
    EXPECT_LT(timing.frequency, 5e9);
    EXPECT_GT(timing.area, 0.0);
    EXPECT_EQ(timing.regions.size(),
              static_cast<std::size_t>(arch::numRegions));
    EXPECT_GE(timing.complexAluStages, 1);
    // Core period is the max over regions (or a loop floor on the
    // issue/execute regions).
    for (const auto &rt : timing.regions)
        EXPECT_LE(rt.clockPeriod, timing.clockPeriod + 1e-15);
}

TEST_F(Synthesis, DeepeningCutsTheCriticalRegion)
{
    CoreSynthesizer synth(library);
    const auto base = arch::baselineConfig();
    const auto base_timing = synth.synthesize(base);
    const auto deeper = synth.deepen(base);
    EXPECT_EQ(deeper.totalStages(), base.totalStages() + 1);
    EXPECT_EQ(deeper.stagesIn(base_timing.critical),
              base.stagesIn(base_timing.critical) + 1);
}

TEST_F(Synthesis, DeepeningImprovesFrequencyInitially)
{
    CoreSynthesizer synth(library);
    auto config = arch::baselineConfig();
    const double f9 = synth.synthesize(config).frequency;
    config = synth.deepen(config);
    config = synth.deepen(config);
    const double f11 = synth.synthesize(config).frequency;
    EXPECT_GT(f11, f9);
}

TEST_F(Synthesis, WidthGrowsAreaMonotonically)
{
    CoreSynthesizer synth(library);
    double prev = 0.0;
    for (int be = 3; be <= 7; ++be) {
        auto config = arch::baselineConfig();
        config.fetchWidth = 2;
        config.aluPipes = be - 2;
        const auto timing = synth.synthesize(config);
        EXPECT_GT(timing.area, prev) << "be=" << be;
        prev = timing.area;
    }
}

TEST_F(Synthesis, ComplexAluMeetsCoreClock)
{
    CoreSynthesizer synth(library);
    const auto timing = synth.synthesize(arch::baselineConfig());
    // The stallable unit is pipelined until it fits under the clock,
    // so with a sane stage count the flag must be in range.
    EXPECT_GE(timing.complexAluStages, 1);
    EXPECT_LE(timing.complexAluStages, 48);
}

TEST_F(Synthesis, CachingIsConsistent)
{
    CoreSynthesizer synth(library);
    const auto a = synth.synthesize(arch::baselineConfig());
    const auto b = synth.synthesize(arch::baselineConfig());
    EXPECT_DOUBLE_EQ(a.clockPeriod, b.clockPeriod);
    EXPECT_DOUBLE_EQ(a.area, b.area);
}

TEST_F(Synthesis, WireOffRaisesFrequency)
{
    sta::StaConfig no_wire;
    no_wire.wireEnabled = false;
    CoreSynthesizer with(library);
    CoreSynthesizer without(library, no_wire);
    const auto fw = with.synthesize(arch::baselineConfig()).frequency;
    const auto fn =
        without.synthesize(arch::baselineConfig()).frequency;
    EXPECT_GT(fn, 1.3 * fw);
}

TEST_F(Synthesis, ReusedSynthesizerMatchesFreshAcrossQueueSizes)
{
    // Rename, Dispatch, Issue and Retire read iqSize/robSize, so a
    // synthesizer that served the baseline must not hand its timings
    // to a core with other queue sizes.
    arch::CoreConfig queues = arch::baselineConfig();
    queues.iqSize = 16;
    queues.robSize = 64;

    CoreSynthesizer reused(library);
    (void)reused.synthesize(arch::baselineConfig());
    const CoreTiming warm = reused.synthesize(queues);
    const CoreTiming fresh = CoreSynthesizer(library).synthesize(queues);

    EXPECT_EQ(warm.clockPeriod, fresh.clockPeriod);
    EXPECT_EQ(warm.area, fresh.area);
    ASSERT_EQ(warm.regions.size(), fresh.regions.size());
    for (std::size_t i = 0; i < warm.regions.size(); ++i) {
        EXPECT_EQ(warm.regions[i].clockPeriod,
                  fresh.regions[i].clockPeriod)
            << arch::toString(warm.regions[i].region);
        EXPECT_EQ(warm.regions[i].area, fresh.regions[i].area)
            << arch::toString(warm.regions[i].region);
        EXPECT_EQ(warm.regions[i].cells, fresh.regions[i].cells)
            << arch::toString(warm.regions[i].region);
    }
}

/** One line per core and per region, every double at %.17g. */
std::string
describeTiming(const arch::CoreConfig &config, const CoreTiming &t)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "fe%d be%d period=%.17g area=%.17g "
                                   "alu_stages=%d\n",
                  config.fetchWidth, config.backendWidth(), t.clockPeriod,
                  t.area, t.complexAluStages);
    std::string out = buf;
    for (const RegionTiming &r : t.regions) {
        std::snprintf(buf, sizeof buf,
                      "  %s x%d period=%.17g area=%.17g cells=%zu\n",
                      arch::toString(r.region), r.stages, r.clockPeriod,
                      r.area, r.cells);
        out += buf;
    }
    return out;
}

/**
 * Golden CoreTiming on the front-end 1-3 x back-end 3-5 grid under
 * the organic library (coarse 2x2 characterization grid), recorded
 * before the synthesizer's memo was rewritten. Every value must stay
 * bit-identical.
 */
TEST(SynthesisGolden, CoreTimingPinnedOnOrganicGrid)
{
    setQuiet(true);
    liberty::CharacterizerConfig grid;
    grid.slewAxis = {4e-6, 64e-6};
    grid.loadMultipliers = {0.5, 6.0};
    const liberty::CellLibrary organic =
        liberty::makeOrganicLibrary(grid);

    CoreSynthesizer synth(organic);
    std::string actual;
    for (int fe = 1; fe <= 3; ++fe)
        for (int be = 3; be <= 5; ++be) {
            arch::CoreConfig config = arch::baselineConfig();
            config.fetchWidth = fe;
            config.aluPipes = be - config.memPipes - config.branchPipes;
            actual += describeTiming(config, synth.synthesize(config));
        }
    // One deepened core, so multi-stage cuts of every region kind
    // (and a deeper complex ALU) are pinned too.
    arch::CoreConfig deep = arch::baselineConfig();
    deep.fetchWidth = 2;
    deep.aluPipes = 2;
    for (int r = 0; r < arch::numRegions; ++r)
        deep.stages[r] = 2 + r % 3;
    actual += describeTiming(deep, synth.synthesize(deep));

    const std::string expected =
        "fe1 be3 period=0.004562581415596575 area=0.0073012288000020992 alu_stages=2\n"
        "  fetch x2 period=0.0011459054831323369 area=0.00014927039999999402 cells=3312\n"
        "  decode x1 period=0.0014470976596609136 area=2.1171200000000103e-05 cells=706\n"
        "  rename x1 period=0.0013627440210411612 area=8.9484800000001153e-05 cells=3469\n"
        "  dispatch x1 period=0.0015122615236807229 area=5.8451200000002657e-05 cells=2351\n"
        "  issue x1 period=0.0032704210452638377 area=0.00040260800000000384 cells=13760\n"
        "  regread x1 period=0.0016489339535223843 area=0.0020653056000020046 cells=77328\n"
        "  execute x1 period=0.004562581415596575 area=0.00017592319999998427 cells=6421\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe1 be4 period=0.0047804849872611051 area=0.0088695392000003124 alu_stages=2\n"
        "  fetch x2 period=0.0011459054831323369 area=0.00014927039999999402 cells=3312\n"
        "  decode x1 period=0.0014470976596609136 area=2.1171200000000103e-05 cells=706\n"
        "  rename x1 period=0.0013627440210411612 area=8.9484800000001153e-05 cells=3469\n"
        "  dispatch x1 period=0.0015122615236807229 area=5.8451200000002657e-05 cells=2351\n"
        "  issue x1 period=0.003272385675298159 area=0.00060378880000006279 cells=22404\n"
        "  regread x1 period=0.0016509780711999994 area=0.0032256000000001513 cells=127680\n"
        "  execute x1 period=0.0047804849872611051 area=0.00038275839999999306 cells=14122\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe1 be5 period=0.0048924665692596358 area=0.009864294399999177 alu_stages=2\n"
        "  fetch x2 period=0.0011459054831323369 area=0.00014927039999999402 cells=3312\n"
        "  decode x1 period=0.0014470976596609136 area=2.1171200000000103e-05 cells=706\n"
        "  rename x1 period=0.0013627440210411612 area=8.9484800000001153e-05 cells=3469\n"
        "  dispatch x1 period=0.0015122615236807229 area=5.8451200000002657e-05 cells=2351\n"
        "  issue x1 period=0.0032732132986821403 area=0.00070070080000008295 cells=25604\n"
        "  regread x1 period=0.0016520169966949417 area=0.0039140351999989807 cells=153456\n"
        "  execute x1 period=0.0048924665692596358 area=0.00059216640000000749 cells=21627\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe2 be3 period=0.004562581415596575 area=0.007618099200002058 alu_stages=2\n"
        "  fetch x2 period=0.0011461261918461346 area=0.00019535039999998317 cells=4672\n"
        "  decode x1 period=0.0014473989053677974 area=4.2342400000000464e-05 cells=1412\n"
        "  rename x1 period=0.0017427312221155343 area=0.00018439679999997948 cells=7134\n"
        "  dispatch x1 period=0.0028173985224987713 area=0.00013943039999999427 cells=5342\n"
        "  issue x1 period=0.0032704210452638377 area=0.00040260800000000384 cells=13760\n"
        "  regread x1 period=0.0016489339535223843 area=0.0020653056000020046 cells=77328\n"
        "  execute x1 period=0.004562581415596575 area=0.00017592319999998427 cells=6421\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe2 be4 period=0.0047804849872611051 area=0.0091864096000002712 alu_stages=2\n"
        "  fetch x2 period=0.0011461261918461346 area=0.00019535039999998317 cells=4672\n"
        "  decode x1 period=0.0014473989053677974 area=4.2342400000000464e-05 cells=1412\n"
        "  rename x1 period=0.0017427312221155343 area=0.00018439679999997948 cells=7134\n"
        "  dispatch x1 period=0.0028173985224987713 area=0.00013943039999999427 cells=5342\n"
        "  issue x1 period=0.003272385675298159 area=0.00060378880000006279 cells=22404\n"
        "  regread x1 period=0.0016509780711999994 area=0.0032256000000001513 cells=127680\n"
        "  execute x1 period=0.0047804849872611051 area=0.00038275839999999306 cells=14122\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe2 be5 period=0.0048924665692596358 area=0.010181164799999136 alu_stages=2\n"
        "  fetch x2 period=0.0011461261918461346 area=0.00019535039999998317 cells=4672\n"
        "  decode x1 period=0.0014473989053677974 area=4.2342400000000464e-05 cells=1412\n"
        "  rename x1 period=0.0017427312221155343 area=0.00018439679999997948 cells=7134\n"
        "  dispatch x1 period=0.0028173985224987713 area=0.00013943039999999427 cells=5342\n"
        "  issue x1 period=0.0032732132986821403 area=0.00070070080000008295 cells=25604\n"
        "  regread x1 period=0.0016520169966949417 area=0.0039140351999989807 cells=153456\n"
        "  execute x1 period=0.0048924665692596358 area=0.00059216640000000749 cells=21627\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe3 be3 period=0.004562581415596575 area=0.007906137600002033 alu_stages=2\n"
        "  fetch x2 period=0.0011564674403189226 area=0.00023313599999997756 cells=5600\n"
        "  decode x1 period=0.0014476300579249791 area=6.3513600000000841e-05 cells=2118\n"
        "  rename x1 period=0.0020092432996018008 area=0.00028334719999996454 cells=10941\n"
        "  dispatch x1 period=0.004027086914280849 area=0.00019583359999998965 cells=7053\n"
        "  issue x1 period=0.0032704210452638377 area=0.00040260800000000384 cells=13760\n"
        "  regread x1 period=0.0016489339535223843 area=0.0020653056000020046 cells=77328\n"
        "  execute x1 period=0.004562581415596575 area=0.00017592319999998427 cells=6421\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe3 be4 period=0.0047804849872611051 area=0.0094744480000002462 alu_stages=2\n"
        "  fetch x2 period=0.0011564674403189226 area=0.00023313599999997756 cells=5600\n"
        "  decode x1 period=0.0014476300579249791 area=6.3513600000000841e-05 cells=2118\n"
        "  rename x1 period=0.0020092432996018008 area=0.00028334719999996454 cells=10941\n"
        "  dispatch x1 period=0.004027086914280849 area=0.00019583359999998965 cells=7053\n"
        "  issue x1 period=0.003272385675298159 area=0.00060378880000006279 cells=22404\n"
        "  regread x1 period=0.0016509780711999994 area=0.0032256000000001513 cells=127680\n"
        "  execute x1 period=0.0047804849872611051 area=0.00038275839999999306 cells=14122\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe3 be5 period=0.0048924665692596358 area=0.010469203199999111 alu_stages=2\n"
        "  fetch x2 period=0.0011564674403189226 area=0.00023313599999997756 cells=5600\n"
        "  decode x1 period=0.0014476300579249791 area=6.3513600000000841e-05 cells=2118\n"
        "  rename x1 period=0.0020092432996018008 area=0.00028334719999996454 cells=10941\n"
        "  dispatch x1 period=0.004027086914280849 area=0.00019583359999998965 cells=7053\n"
        "  issue x1 period=0.0032732132986821403 area=0.00070070080000008295 cells=25604\n"
        "  regread x1 period=0.0016520169966949417 area=0.0039140351999989807 cells=153456\n"
        "  execute x1 period=0.0048924665692596358 area=0.00059216640000000749 cells=21627\n"
        "  retire x1 period=0.0015100399415731427 area=4.816000000000147e-05 cells=1815\n"
        "fe2 be4 period=0.002565609483755778 area=0.027644214400017304 alu_stages=4\n"
        "  fetch x2 period=0.0011461261918461346 area=0.00019535039999998317 cells=4672\n"
        "  decode x3 period=0.00073726050605663789 area=0.00013204480000000027 cells=1704\n"
        "  rename x4 period=0.00065858090734861559 area=0.00096714240000007889 cells=9682\n"
        "  dispatch x2 period=0.0015552857572256854 area=0.00040823040000001449 cells=6217\n"
        "  issue x3 period=0.0016518755100224706 area=0.00087105280000008547 cells=23274\n"
        "  regread x4 period=0.00066239823066908889 area=0.019337625600016898 cells=180128\n"
        "  execute x2 period=0.002565609483755778 area=0.00075754240000003097 cells=15342\n"
        "  retire x3 period=0.00072055486194172837 area=0.0001768767999999952 cells=2234\n";
    EXPECT_EQ(actual, expected);
}

} // namespace
} // namespace otft::core
