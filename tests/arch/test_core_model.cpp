/** @file Tests for the cycle-level out-of-order core model. */

#include <gtest/gtest.h>

#include "arch/core.hpp"
#include "util/logging.hpp"

namespace otft::arch {
namespace {

SimStats
simulate(const CoreConfig &config, const std::string &workload,
         std::uint64_t instructions = 40000)
{
    auto profile = workload::profileByName(workload);
    workload::TraceGenerator gen(profile, 7);
    CoreModel core(config, gen);
    return core.run(instructions, 8000);
}

TEST(CoreModel, IpcInPhysicalRange)
{
    const auto stats = simulate(baselineConfig(), "gzip");
    EXPECT_GT(stats.ipc(), 0.05);
    // Single-issue front end can never exceed IPC 1.
    EXPECT_LE(stats.ipc(), 1.0);
    EXPECT_EQ(stats.instructions, 40000u);
}

TEST(CoreModel, WiderFrontEndRaisesIpc)
{
    auto narrow = baselineConfig();
    auto wide = baselineConfig();
    wide.fetchWidth = 4;
    wide.aluPipes = 3;
    const auto s_narrow = simulate(narrow, "dhrystone");
    const auto s_wide = simulate(wide, "dhrystone");
    EXPECT_GT(s_wide.ipc(), 1.15 * s_narrow.ipc());
}

TEST(CoreModel, DeeperFrontEndLowersIpc)
{
    auto shallow = baselineConfig();
    shallow.fetchWidth = 2;
    shallow.aluPipes = 2;
    auto deep = shallow;
    deep.stagesIn(Region::Fetch) += 3;
    deep.stagesIn(Region::Decode) += 2;
    const auto s_shallow = simulate(shallow, "gzip");
    const auto s_deep = simulate(deep, "gzip");
    EXPECT_LT(s_deep.ipc(), s_shallow.ipc());
}

TEST(CoreModel, WakeupPenaltyLowersIpc)
{
    auto fast = baselineConfig();
    fast.fetchWidth = 2;
    fast.aluPipes = 2;
    auto slow = fast;
    slow.stagesIn(Region::Issue) = 3;
    EXPECT_LT(simulate(slow, "gzip").ipc(),
              simulate(fast, "gzip").ipc());
}

TEST(CoreModel, McfIsMemoryBound)
{
    const auto mcf = simulate(baselineConfig(), "mcf");
    const auto dhry = simulate(baselineConfig(), "dhrystone");
    EXPECT_LT(mcf.ipc(), 0.4 * dhry.ipc());
    EXPECT_GT(mcf.l2Misses, dhry.l2Misses * 4);
}

TEST(CoreModel, BranchStatsPopulated)
{
    const auto stats = simulate(baselineConfig(), "parser");
    EXPECT_GT(stats.branches, 0u);
    EXPECT_GT(stats.mispredicts, 0u);
    EXPECT_LT(stats.mispredictRate(), 0.5);
    EXPECT_GT(stats.loads, 0u);
    EXPECT_GT(stats.stores, 0u);
}

TEST(CoreModel, DeterministicForSameSeedAndConfig)
{
    const auto a = simulate(baselineConfig(), "bzip", 20000);
    const auto b = simulate(baselineConfig(), "bzip", 20000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(CoreModel, RejectsInvalidWidths)
{
    auto config = baselineConfig();
    config.fetchWidth = 0;
    auto profile = workload::profileByName("gzip");
    workload::TraceGenerator gen(profile, 7);
    EXPECT_THROW(CoreModel(config, gen), FatalError);
}

TEST(CoreModel, ZeroWarmupWorks)
{
    auto profile = workload::profileByName("gzip");
    workload::TraceGenerator gen(profile, 7);
    CoreModel core(baselineConfig(), gen);
    const auto stats = core.run(5000, 0);
    EXPECT_EQ(stats.instructions, 5000u);
    EXPECT_GT(stats.cycles, 5000u);
}

/**
 * SimStats golden: all eight counters for the seven paper workloads
 * at 20k instructions on a small grid -- front end {1, 4, 6} x back
 * end {3, 7} x {baseline stages ('b'), deepened Fetch 4 / Issue 2 /
 * Execute 3 ('d')} -- plus one structure-starved config ('s': the
 * deepened 4x7 core with ROB 8, IQ 4, LSQ 2) that keeps the ROB-,
 * IQ- and LSQ-full dispatch stalls and divide pipe blocking busy.
 * Any change to a number here changes the simulated machine; a pure
 * refactor of the core model must leave every row intact.
 */
struct GoldenRow
{
    int fetchWidth;
    int backendWidth;
    char shape;
    const char *workload;
    SimStats expected;
};

const GoldenRow goldenRows[] = {
    {1, 3, 'b', "bzip", {48425, 20000, 2186, 734, 4906, 1757, 1476, 738}},
    {1, 3, 'b', "gap", {50089, 20000, 1406, 510, 5722, 2351, 2129, 1038}},
    {1, 3, 'b', "gzip", {40520, 20001, 1989, 645, 4124, 1550, 1126, 528}},
    {1, 3, 'b', "mcf", {263138, 20002, 3762, 1022, 6248, 1785, 10025, 7301}},
    {1, 3, 'b', "parser", {87926, 20000, 3285, 906, 4654, 1700, 4696, 2017}},
    {1, 3, 'b', "vortex", {59218, 20001, 2784, 680, 5390, 3346, 4146, 1294}},
    {1, 3, 'b', "dhrystone", {25437, 20000, 3437, 666, 4447, 2333, 0, 0}},
    {1, 3, 'd', "bzip", {60827, 20000, 2187, 734, 4908, 1757, 1488, 749}},
    {1, 3, 'd', "gap", {59622, 20001, 1406, 510, 5722, 2351, 2132, 1039}},
    {1, 3, 'd', "gzip", {53600, 20000, 1986, 644, 4122, 1549, 1132, 527}},
    {1, 3, 'd', "mcf", {282346, 20002, 3762, 1022, 6248, 1786, 10023, 7301}},
    {1, 3, 'd', "parser", {104367, 20000, 3285, 906, 4654, 1700, 4697, 2017}},
    {1, 3, 'd', "vortex", {68152, 20000, 2785, 680, 5390, 3346, 4151, 1294}},
    {1, 3, 'd', "dhrystone", {33021, 20000, 3438, 666, 4449, 2333, 0, 0}},
    {1, 7, 'b', "bzip", {47825, 20000, 2186, 734, 4906, 1757, 1476, 738}},
    {1, 7, 'b', "gap", {49492, 20000, 1406, 510, 5722, 2351, 2129, 1038}},
    {1, 7, 'b', "gzip", {39660, 20005, 1989, 645, 4124, 1550, 1125, 526}},
    {1, 7, 'b', "mcf", {262570, 20002, 3762, 1022, 6249, 1785, 10025, 7303}},
    {1, 7, 'b', "parser", {86945, 20003, 3285, 906, 4654, 1700, 4696, 2017}},
    {1, 7, 'b', "vortex", {58891, 20006, 2783, 679, 5391, 3346, 4146, 1295}},
    {1, 7, 'b', "dhrystone", {25414, 20000, 3437, 666, 4447, 2333, 0, 0}},
    {1, 7, 'd', "bzip", {60033, 20000, 2187, 734, 4908, 1757, 1488, 749}},
    {1, 7, 'd', "gap", {58710, 20001, 1406, 510, 5722, 2351, 2132, 1039}},
    {1, 7, 'd', "gzip", {52464, 20000, 1986, 644, 4122, 1549, 1131, 527}},
    {1, 7, 'd', "mcf", {281928, 20001, 3762, 1022, 6248, 1786, 10023, 7301}},
    {1, 7, 'd', "parser", {103630, 20001, 3285, 906, 4654, 1700, 4697, 2017}},
    {1, 7, 'd', "vortex", {67825, 20000, 2783, 679, 5390, 3345, 4150, 1294}},
    {1, 7, 'd', "dhrystone", {32448, 20000, 3438, 666, 4449, 2333, 0, 0}},
    {4, 3, 'b', "bzip", {43912, 20001, 2187, 734, 4908, 1757, 1484, 743}},
    {4, 3, 'b', "gap", {46834, 20000, 1406, 510, 5722, 2351, 2133, 1038}},
    {4, 3, 'b', "gzip", {35875, 20003, 1987, 644, 4122, 1549, 1125, 527}},
    {4, 3, 'b', "mcf", {261497, 20001, 3762, 1022, 6249, 1786, 10026, 7302}},
    {4, 3, 'b', "parser", {85064, 20003, 3285, 906, 4654, 1700, 4696, 2017}},
    {4, 3, 'b', "vortex", {55894, 20002, 2784, 680, 5390, 3347, 4149, 1294}},
    {4, 3, 'b', "dhrystone", {16264, 20000, 3438, 666, 4448, 2333, 0, 0}},
    {4, 3, 'd', "bzip", {59002, 20001, 2187, 734, 4908, 1757, 1492, 749}},
    {4, 3, 'd', "gap", {57875, 20001, 1406, 510, 5722, 2351, 2135, 1039}},
    {4, 3, 'd', "gzip", {52170, 20000, 1986, 644, 4122, 1549, 1133, 527}},
    {4, 3, 'd', "mcf", {281150, 20000, 3763, 1023, 6248, 1786, 10023, 7301}},
    {4, 3, 'd', "parser", {102871, 20002, 3285, 906, 4654, 1700, 4696, 2017}},
    {4, 3, 'd', "vortex", {65987, 20001, 2785, 680, 5390, 3346, 4155, 1294}},
    {4, 3, 'd', "dhrystone", {29829, 20000, 3438, 666, 4449, 2333, 0, 0}},
    {4, 7, 'b', "bzip", {41777, 20000, 2187, 734, 4908, 1757, 1485, 745}},
    {4, 7, 'b', "gap", {45106, 20000, 1406, 510, 5722, 2351, 2135, 1039}},
    {4, 7, 'b', "gzip", {33107, 20000, 1986, 644, 4122, 1549, 1126, 527}},
    {4, 7, 'b', "mcf", {260798, 20002, 3762, 1022, 6249, 1786, 10024, 7302}},
    {4, 7, 'b', "parser", {83384, 20003, 3285, 906, 4654, 1700, 4696, 2017}},
    {4, 7, 'b', "vortex", {55241, 20006, 2784, 680, 5391, 3346, 4149, 1295}},
    {4, 7, 'b', "dhrystone", {14077, 20000, 3438, 666, 4449, 2333, 0, 0}},
    {4, 7, 'd', "bzip", {57947, 20002, 2187, 734, 4908, 1757, 1491, 749}},
    {4, 7, 'd', "gap", {56871, 20001, 1406, 510, 5722, 2351, 2136, 1039}},
    {4, 7, 'd', "gzip", {50729, 20000, 1986, 644, 4122, 1549, 1132, 527}},
    {4, 7, 'd', "mcf", {280676, 20001, 3763, 1023, 6248, 1786, 10023, 7301}},
    {4, 7, 'd', "parser", {101952, 20001, 3285, 906, 4654, 1700, 4696, 2017}},
    {4, 7, 'd', "vortex", {65505, 20000, 2783, 679, 5390, 3345, 4151, 1294}},
    {4, 7, 'd', "dhrystone", {28837, 20000, 3438, 666, 4449, 2334, 0, 0}},
    {6, 3, 'b', "bzip", {43971, 20001, 2187, 734, 4908, 1757, 1484, 743}},
    {6, 3, 'b', "gap", {46582, 20000, 1406, 510, 5722, 2351, 2133, 1039}},
    {6, 3, 'b', "gzip", {35809, 20000, 1986, 644, 4121, 1549, 1126, 527}},
    {6, 3, 'b', "mcf", {261440, 20003, 3762, 1022, 6249, 1786, 10026, 7302}},
    {6, 3, 'b', "parser", {84975, 20003, 3285, 906, 4654, 1700, 4696, 2017}},
    {6, 3, 'b', "vortex", {55775, 20004, 2784, 680, 5391, 3346, 4150, 1295}},
    {6, 3, 'b', "dhrystone", {16140, 20000, 3438, 666, 4448, 2333, 0, 0}},
    {6, 3, 'd', "bzip", {58954, 20002, 2187, 734, 4908, 1757, 1492, 749}},
    {6, 3, 'd', "gap", {57708, 20001, 1406, 510, 5722, 2351, 2135, 1039}},
    {6, 3, 'd', "gzip", {52135, 20000, 1986, 644, 4122, 1549, 1133, 527}},
    {6, 3, 'd', "mcf", {281112, 20002, 3763, 1023, 6248, 1786, 10023, 7301}},
    {6, 3, 'd', "parser", {102833, 20000, 3285, 906, 4654, 1700, 4696, 2017}},
    {6, 3, 'd', "vortex", {65887, 20005, 2785, 680, 5390, 3345, 4155, 1294}},
    {6, 3, 'd', "dhrystone", {29738, 20000, 3438, 666, 4449, 2333, 0, 0}},
    {6, 7, 'b', "bzip", {41606, 20000, 2187, 734, 4908, 1757, 1485, 745}},
    {6, 7, 'b', "gap", {45244, 20000, 1406, 510, 5722, 2351, 2137, 1041}},
    {6, 7, 'b', "gzip", {32957, 20000, 1986, 644, 4122, 1549, 1127, 527}},
    {6, 7, 'b', "mcf", {260720, 20002, 3762, 1022, 6249, 1786, 10024, 7302}},
    {6, 7, 'b', "parser", {83263, 20003, 3285, 906, 4654, 1700, 4696, 2017}},
    {6, 7, 'b', "vortex", {55134, 20006, 2784, 680, 5391, 3346, 4148, 1295}},
    {6, 7, 'b', "dhrystone", {13785, 20000, 3439, 666, 4449, 2333, 0, 0}},
    {6, 7, 'd', "bzip", {57861, 20002, 2187, 734, 4908, 1757, 1491, 749}},
    {6, 7, 'd', "gap", {56786, 20001, 1406, 510, 5722, 2351, 2136, 1039}},
    {6, 7, 'd', "gzip", {50664, 20000, 1986, 644, 4122, 1549, 1132, 527}},
    {6, 7, 'd', "mcf", {280622, 20001, 3763, 1023, 6248, 1786, 10023, 7301}},
    {6, 7, 'd', "parser", {101888, 20001, 3285, 906, 4654, 1700, 4696, 2017}},
    {6, 7, 'd', "vortex", {65402, 20000, 2784, 679, 5390, 3345, 4153, 1294}},
    {6, 7, 'd', "dhrystone", {28716, 20000, 3438, 666, 4449, 2334, 0, 0}},
    {4, 7, 's', "bzip", {89643, 20000, 2187, 734, 4907, 1757, 1475, 740}},
    {4, 7, 's', "gap", {106216, 20001, 1406, 510, 5722, 2351, 2114, 1029}},
    {4, 7, 's', "gzip", {75810, 20000, 1986, 644, 4122, 1549, 1122, 524}},
    {4, 7, 's', "mcf", {423030, 20002, 3764, 1023, 6249, 1786, 10021, 7300}},
    {4, 7, 's', "parser", {163388, 20002, 3278, 905, 4640, 1694, 4692, 2017}},
    {4, 7, 's', "vortex", {127160, 20000, 2784, 680, 5389, 3344, 4139, 1295}},
    {4, 7, 's', "dhrystone", {42156, 20000, 3437, 666, 4447, 2332, 0, 0}},
};

CoreConfig
goldenConfig(const GoldenRow &row)
{
    auto config = baselineConfig();
    config.fetchWidth = row.fetchWidth;
    config.aluPipes = row.backendWidth - 2;
    if (row.shape != 'b') {
        config.stagesIn(Region::Fetch) = 4;
        config.stagesIn(Region::Issue) = 2;
        config.stagesIn(Region::Execute) = 3;
    }
    if (row.shape == 's') {
        config.robSize = 8;
        config.iqSize = 4;
        config.lsqSize = 2;
    }
    return config;
}

TEST(CoreModelGolden, SimStatsPinnedOnSmallGrid)
{
    for (const GoldenRow &row : goldenRows) {
        SCOPED_TRACE(::testing::Message()
                     << "fe " << row.fetchWidth << " be "
                     << row.backendWidth << " shape " << row.shape
                     << " " << row.workload);
        const SimStats got =
            simulate(goldenConfig(row), row.workload, 20000);
        const SimStats &want = row.expected;
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.instructions, want.instructions);
        EXPECT_EQ(got.branches, want.branches);
        EXPECT_EQ(got.mispredicts, want.mispredicts);
        EXPECT_EQ(got.loads, want.loads);
        EXPECT_EQ(got.stores, want.stores);
        EXPECT_EQ(got.l1Misses, want.l1Misses);
        EXPECT_EQ(got.l2Misses, want.l2Misses);
    }
}

/** Sweep: every paper workload runs on a mid-size config. */
class AllWorkloadsRun : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllWorkloadsRun, ProducesPlausibleIpc)
{
    auto config = baselineConfig();
    config.fetchWidth = 2;
    config.aluPipes = 2;
    const auto stats = simulate(config, GetParam(), 30000);
    EXPECT_GT(stats.ipc(), 0.03) << GetParam();
    EXPECT_LT(stats.ipc(), 2.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Paper, AllWorkloadsRun,
                         ::testing::Values("bzip", "gap", "gzip",
                                           "mcf", "parser", "vortex",
                                           "dhrystone"));

/** Sweep: IPC monotonically non-increasing as mispredict penalty
 *  regions deepen. */
class DepthIpc : public ::testing::TestWithParam<int>
{
};

TEST_P(DepthIpc, FrontDepthHurts)
{
    auto config = baselineConfig();
    config.fetchWidth = 2;
    config.aluPipes = 2;
    config.stagesIn(Region::Fetch) = GetParam();
    const auto stats = simulate(config, "gzip");
    // Compare against one stage deeper.
    auto deeper = config;
    deeper.stagesIn(Region::Fetch) = GetParam() + 2;
    const auto deep_stats = simulate(deeper, "gzip");
    EXPECT_LE(deep_stats.ipc(), stats.ipc() * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthIpc,
                         ::testing::Values(2, 3, 4, 5));

} // namespace
} // namespace otft::arch
