/** @file Unit tests for library serialization. */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "liberty/characterizer.hpp"
#include "liberty/mc_characterizer.hpp"
#include "liberty/serialize.hpp"
#include "liberty/silicon.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace otft::liberty {
namespace {

TEST(Serialize, RoundTripPreservesEverything)
{
    const auto lib = makeSiliconLibrary();
    std::stringstream ss;
    writeLibrary(ss, lib);
    const auto back = readLibrary(ss);

    EXPECT_EQ(back.name(), lib.name());
    EXPECT_DOUBLE_EQ(back.vdd(), lib.vdd());
    EXPECT_DOUBLE_EQ(back.defaultSlew(), lib.defaultSlew());
    EXPECT_DOUBLE_EQ(back.clockMargin(), lib.clockMargin());
    EXPECT_DOUBLE_EQ(back.wire().resPerMeter, lib.wire().resPerMeter);
    ASSERT_EQ(back.cellNames(), lib.cellNames());

    for (const auto &name : lib.cellNames()) {
        const auto &a = lib.cell(name);
        const auto &b = back.cell(name);
        EXPECT_EQ(a.fanIn, b.fanIn);
        EXPECT_EQ(a.isSequential, b.isSequential);
        EXPECT_DOUBLE_EQ(a.area, b.area);
        EXPECT_DOUBLE_EQ(a.inputCap, b.inputCap);
        EXPECT_DOUBLE_EQ(a.leakage, b.leakage);
        ASSERT_EQ(a.arcs.size(), b.arcs.size());
        // Spot-check arc lookups at a few operating points.
        for (std::size_t arc = 0; arc < a.arcs.size(); ++arc) {
            for (double slew : {1e-12, 5e-11}) {
                for (double load : {1e-15, 2e-14}) {
                    EXPECT_DOUBLE_EQ(
                        a.arcs[arc].worstDelay(slew, load),
                        b.arcs[arc].worstDelay(slew, load));
                }
            }
        }
        if (a.isSequential) {
            EXPECT_DOUBLE_EQ(a.flop.clkToQ, b.flop.clkToQ);
            EXPECT_DOUBLE_EQ(a.flop.setup, b.flop.setup);
        }
    }
}

TEST(Serialize, FileSaveLoad)
{
    const std::string path = "test_serialize_tmp.lib";
    const auto lib = makeSiliconLibrary();
    saveLibrary(path, lib, "unit-key");
    const auto back = loadLibrary(path);
    EXPECT_EQ(back.name(), lib.name());
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

TEST(Serialize, SavedFileIsStampLinePlusWriteLibraryBytes)
{
    const std::string path = "test_serialize_stamp.lib";
    const auto lib = makeSiliconLibrary();
    saveLibrary(path, lib, "unit-key");
    std::ostringstream bytes;
    writeLibrary(bytes, lib);
    EXPECT_EQ(readFile(path), "provenance unit-key\n" + bytes.str());

    std::ifstream in(path);
    std::string stamp;
    (void)readLibrary(in, &stamp);
    EXPECT_EQ(stamp, "unit-key");
    std::remove(path.c_str());
}

TEST(Serialize, TryLoadMissingFile)
{
    EXPECT_FALSE(
        tryLoadLibrary("definitely/not/here.lib", "unit-key").has_value());
}

TEST(Serialize, TryLoadCorruptFile)
{
    setQuiet(true);
    const std::string path = "test_serialize_corrupt.lib";
    {
        std::ofstream os(path);
        os << "this is not a library\n";
    }
    EXPECT_FALSE(tryLoadLibrary(path, "unit-key").has_value());
    std::remove(path.c_str());
    setQuiet(false);
}

TEST(Serialize, LoadOrBuildCachesToDisk)
{
    const std::string path = "test_serialize_cache.lib";
    std::remove(path.c_str());
    int builds = 0;
    auto builder = [&] {
        ++builds;
        return makeSiliconLibrary();
    };
    const auto a = loadOrBuild(path, "unit-key", builder);
    const auto b = loadOrBuild(path, "unit-key", builder);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a.name(), b.name());
    std::remove(path.c_str());
}

TEST(Serialize, LoadOrBuildRebuildsOnADifferentProvenance)
{
    setQuiet(true);
    const std::string path = "test_serialize_stale.lib";
    std::remove(path.c_str());
    int builds = 0;
    auto builder = [&] {
        ++builds;
        return makeSiliconLibrary();
    };
    (void)loadOrBuild(path, "key-a", builder);
    (void)loadOrBuild(path, "key-b", builder);
    EXPECT_EQ(builds, 2);
    // The rebuild restamped the file: key-b now hits, key-a is stale.
    (void)loadOrBuild(path, "key-b", builder);
    EXPECT_EQ(builds, 2);
    EXPECT_FALSE(tryLoadLibrary(path, "key-a").has_value());
    std::remove(path.c_str());
    setQuiet(false);
}

TEST(Serialize, UnstampedFileIsRebuilt)
{
    setQuiet(true);
    const std::string path = "test_serialize_unstamped.lib";
    {
        std::ofstream os(path);
        writeLibrary(os, makeSiliconLibrary());
    }
    // The bare writeLibrary format still parses...
    EXPECT_NO_THROW(loadLibrary(path));
    // ...but carries no provenance, so a cache load rebuilds it.
    EXPECT_FALSE(tryLoadLibrary(path, "unit-key").has_value());
    int builds = 0;
    (void)loadOrBuild(path, "unit-key", [&] {
        ++builds;
        return makeSiliconLibrary();
    });
    EXPECT_EQ(builds, 1);
    EXPECT_TRUE(tryLoadLibrary(path, "unit-key").has_value());
    std::remove(path.c_str());
    setQuiet(false);
}

TEST(Serialize, ProvenanceTracksEveryCharacterizationInput)
{
    const cells::CellFactory golden;
    const CharacterizerConfig grid;
    const auto key = [](const cells::CellFactory &factory,
                        const CharacterizerConfig &config) {
        return Characterizer(factory, config).provenance();
    };
    const std::string base = key(golden, grid);
    EXPECT_EQ(base, key(cells::CellFactory{}, grid));
    EXPECT_EQ(base.rfind(characterizerVersion, 0), 0u) << base;
    EXPECT_EQ(base.find_first_of(" \t\n"), std::string::npos);

    device::Level61Params device = golden.params();
    device.u0 *= 10.0;
    EXPECT_NE(base, key(cells::CellFactory(device, golden.sizing(),
                                           golden.supply()),
                        grid));

    cells::CellSizing sizing = golden.sizing();
    sizing.wDrive *= 2.0;
    EXPECT_NE(base, key(cells::CellFactory(golden.params(), sizing,
                                           golden.supply()),
                        grid));

    CharacterizerConfig slews = grid;
    slews.slewAxis.back() *= 2.0;
    EXPECT_NE(base, key(golden, slews));

    CharacterizerConfig loads = grid;
    loads.loadMultipliers.push_back(24.0);
    EXPECT_NE(base, key(golden, loads));

    CharacterizerConfig step = grid;
    step.dt *= 0.5;
    EXPECT_NE(base, key(golden, step));
}

TEST(Serialize, McProvenanceTracksSamplesSeedAndCorner)
{
    const McConfig config;
    const std::string mean = mcProvenance(config, "mean");
    EXPECT_EQ(mean, mcProvenance(McConfig{}, "mean"));
    EXPECT_NE(mean, mcProvenance(config, "slow"));
    EXPECT_NE(mean,
              Characterizer(cells::CellFactory{}, config.grid).provenance());

    McConfig samples = config;
    samples.samples += 1;
    EXPECT_NE(mean, mcProvenance(samples, "mean"));

    McConfig seed = config;
    seed.seed += 1;
    EXPECT_NE(mean, mcProvenance(seed, "mean"));

    McConfig grid = config;
    grid.grid.dt *= 0.5;
    EXPECT_NE(mean, mcProvenance(grid, "mean"));
}

TEST(Serialize, McCornerFilesRebuildForOtherSamplesOrSeed)
{
    setQuiet(true);
    const std::string path = "test_serialize_mc_mean.lib";
    McConfig written;
    written.samples = 4;
    written.seed = 7;
    saveLibrary(path, makeSiliconLibrary(),
                mcProvenance(written, "mean"));
    EXPECT_TRUE(
        tryLoadLibrary(path, mcProvenance(written, "mean")).has_value());

    McConfig more = written;
    more.samples = 8;
    EXPECT_FALSE(
        tryLoadLibrary(path, mcProvenance(more, "mean")).has_value());
    McConfig reseeded = written;
    reseeded.seed = 8;
    EXPECT_FALSE(tryLoadLibrary(path, mcProvenance(reseeded, "mean"))
                     .has_value());
    std::remove(path.c_str());
    setQuiet(false);
}

TEST(Serialize, OversizedTableHeaderIsFatalNotBadAlloc)
{
    std::ostringstream os;
    writeLibrary(os, makeSiliconLibrary());
    std::string text = os.str();
    const std::size_t at = text.find("delay_rise ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t eol = text.find('\n', at);
    text.replace(at, eol - at, "delay_rise 4000000000 4000000000");
    std::istringstream is(text);
    EXPECT_THROW(readLibrary(is), FatalError);

    // n_slew * n_load overflowing size_t must not wrap to a small
    // allocation either.
    text.replace(at, text.find('\n', at) - at,
                 "delay_rise 4294967296 4294967296");
    std::istringstream wrap(text);
    EXPECT_THROW(readLibrary(wrap), FatalError);

    setQuiet(true);
    const std::string path = "test_serialize_oversized.lib";
    {
        std::ofstream file(path);
        file << "provenance unit-key\n" << text;
    }
    EXPECT_FALSE(tryLoadLibrary(path, "unit-key").has_value());
    std::remove(path.c_str());
    setQuiet(false);
}

/** A small stamped library document: one gate and one flop. */
std::string
smallLibraryDocument()
{
    CellLibrary lib("fuzz", 5.0);
    lib.setDefaultSlew(1e-6);
    lib.setClockMargin(2e-6);
    lib.wire().resPerMeter = 4.9e4;
    const NldmTable table({1e-6, 4e-6}, {1e-15, 3e-15, 9e-15},
                          {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
    for (const char *name : {"inv", "dff"}) {
        StdCell cell;
        cell.name = name;
        cell.isSequential = std::string(name) == "dff";
        cell.area = 1e-8;
        cell.inputCap = 1e-15;
        cell.leakage = 1e-9;
        cell.flop.clkToQ = 3e-6;
        TimingArc arc;
        arc.fromPin = cell.isSequential ? "d" : "a";
        for (int sense = 0; sense < 2; ++sense) {
            arc.delay[sense] = table;
            arc.outputSlew[sense] = table;
        }
        cell.arcs.push_back(arc);
        lib.addCell(cell);
    }
    std::ostringstream os;
    os << "provenance unit-key\n";
    writeLibrary(os, lib);
    return os.str();
}

/** Parse `text`; @return true on success, false on FatalError. */
bool
parses(const std::string &text)
{
    std::istringstream is(text);
    try {
        (void)readLibrary(is);
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

TEST(SerializeFuzz, EveryTruncationParsesOrIsFatal)
{
    const std::string doc = smallLibraryDocument();
    ASSERT_TRUE(parses(doc));
    int rejected = 0;
    for (std::size_t len = 0; len < doc.size(); ++len)
        rejected += parses(doc.substr(0, len)) ? 0 : 1;
    EXPECT_GT(rejected, 0);
}

TEST(SerializeFuzz, EveryByteMutationParsesOrIsFatal)
{
    const std::string doc = smallLibraryDocument();
    int parsed = 0;
    int rejected = 0;
    for (std::size_t pos = 0; pos < doc.size(); ++pos) {
        for (char c : {'9', '-', ' ', 'x'}) {
            std::string mutant = doc;
            mutant[pos] = c;
            (parses(mutant) ? parsed : rejected) += 1;
        }
        std::string deleted = doc;
        deleted.erase(pos, 1);
        (parses(deleted) ? parsed : rejected) += 1;
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

TEST(SerializeFuzz, RandomMultiByteMutantsParseOrAreFatal)
{
    const std::string doc = smallLibraryDocument();
    Rng rng(20261017);
    for (int rep = 0; rep < 500; ++rep) {
        std::string mutant = doc;
        const std::uint64_t edits = 1 + rng.uniformInt(4);
        for (std::uint64_t e = 0; e < edits && !mutant.empty(); ++e) {
            const auto pos = static_cast<std::size_t>(
                rng.uniformInt(mutant.size()));
            mutant[pos] = static_cast<char>(rng.uniformInt(95) + 32);
        }
        (void)parses(mutant);
    }
}

TEST(Serialize, MalformedStreamIsFatal)
{
    std::stringstream ss("garbage tokens");
    EXPECT_THROW(readLibrary(ss), FatalError);
}

} // namespace
} // namespace otft::liberty
