#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "arch/core.hpp"
#include "core/blocks.hpp"
#include "core/explorer.hpp"
#include "core/yield_explorer.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/mc_characterizer.hpp"
#include "liberty/serialize.hpp"
#include "liberty/silicon.hpp"
#include "netlist/bufferize.hpp"
#include "sta/pipeline.hpp"
#include "sta/sta.hpp"
#include "util/parallel.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using namespace otft;

namespace {

// The figure benches' settings: fig13_width_performance and
// yield_sweep simulate 100k instructions per IPC run; yield_sweep and
// mc_characterize draw 16 Monte Carlo samples and sign off at 99%.
constexpr std::uint64_t kInstructions = 100000;
constexpr int kMcSamples = 16;
constexpr double kTargetYield = 0.99;

/** Run fn, adding its wall time to the span log when tracing. */
template <typename Fn>
auto
timed(const char *name, Fn &&fn)
{
    const double t0 = nowS();
    auto result = fn();
    if (spans().on)
        spans().seconds[name] += nowS() - t0;
    return result;
}

/**
 * FNV-1a 64 over canonical text. Kept apart from the program's own
 * result-cache hasher so a change to that hasher cannot silently
 * change what the reference check compares.
 */
class Digest
{
  public:
    Digest &
    text(const std::string &s)
    {
        for (const char c : s) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 1099511628211ULL;
        }
        bytes_ += s.size();
        return *this;
    }

    Digest &
    num(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g;", v);
        return text(buf);
    }

    std::string
    str() const
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "fnv1a64:%016llx:%llu",
                      static_cast<unsigned long long>(hash_),
                      static_cast<unsigned long long>(bytes_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 1469598103934665603ULL;
    std::uint64_t bytes_ = 0;
};

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Digest of the library's .lib text, byte for byte. */
std::string
libDigest(const liberty::CellLibrary &library)
{
    std::ostringstream os;
    liberty::writeLibrary(os, library);
    return Digest().text(os.str()).str();
}

/** Corner .lib digests plus the statistical-library validator. */
void
checkStatLibrary(Outcome &out, const std::string &name,
                 const liberty::StatLibrary &stat)
{
    out.checks[name + "_mean_lib"] = libDigest(stat.mean);
    out.checks[name + "_slow_lib"] = libDigest(stat.slow);
    out.checks[name + "_fast_lib"] = libDigest(stat.fast);
    ++out.validations;
    const std::string error =
        liberty::validateStatLibrary(stat.mean, stat.slow, stat.fast);
    if (!error.empty())
        out.invalid.push_back(name + ": " + error);
}

/** NLDM grid points (one transient each) behind a library's arcs. */
std::uint64_t
arcPoints(const liberty::CellLibrary &library)
{
    std::uint64_t n = 0;
    for (const std::string &name : library.cellNames())
        for (const liberty::TimingArc &arc : library.cell(name).arcs)
            n += arc.delay[0].values().size();
    return n;
}

/** Every field of a core configuration: the IPC identity. */
std::string
configKey(const arch::CoreConfig &c)
{
    std::string key = std::to_string(c.fetchWidth) + "/" +
                      std::to_string(c.aluPipes) + "/" +
                      std::to_string(c.memPipes) + "/" +
                      std::to_string(c.branchPipes) + "/";
    for (const int s : c.stages)
        key += std::to_string(s) + ",";
    for (const int v : {c.robSize, c.iqSize, c.lsqSize, c.predictorBits,
                        c.mulLatency, c.divLatency, c.l1Latency,
                        c.l2Latency, c.memLatency})
        key += "/" + std::to_string(v);
    return key;
}

/** One (library, configuration) evaluation a rep asked for. */
struct Evaluated
{
    const liberty::CellLibrary *library = nullptr;
    arch::CoreConfig config;
};

/**
 * Replay the distinct design points of a rep through the public layer
 * calls the explorer makes, timing each on the thread that makes it.
 * Like the sweeps themselves, the replay runs at the default jobs:
 * CoreSynthesizer::synthesize on a fresh synthesizer per (library,
 * config) as a pool task, as the width sweep's task-local synthesizers
 * do; ArchExplorer::measureIpc per distinct config from this thread;
 * CoreModel::run per (config, workload) as a pool task; and
 * Pipeliner::pipeline + StaEngine::analyze per distinct region block
 * as a pool task.
 */
Replay
replayPoints(const std::vector<Evaluated> &points, std::uint64_t seed)
{
    Replay r;
    if (points.empty())
        return r;

    std::vector<Evaluated> pairs;
    std::vector<arch::CoreConfig> configs;
    std::set<std::pair<const liberty::CellLibrary *, std::string>>
        seen_pairs;
    std::set<std::string> seen_configs;
    for (const Evaluated &p : points) {
        const std::string key = configKey(p.config);
        if (seen_pairs.emplace(p.library, key).second)
            pairs.push_back(p);
        if (seen_configs.insert(key).second)
            configs.push_back(p.config);
    }

    const std::vector<double> synth_s =
        parallel::orderedMap<double>(pairs.size(), [&](std::size_t k) {
            core::CoreSynthesizer synthesizer(*pairs[k].library);
            const double t0 = nowS();
            synthesizer.synthesize(pairs[k].config);
            return nowS() - t0;
        });
    for (const double s : synth_s)
        r.synthS += s;

    core::ExplorerConfig config;
    config.instructions = kInstructions;
    config.seed = seed;
    core::ArchExplorer explorer(*points.front().library, config);
    std::map<std::string, double> ipc_s;
    for (const arch::CoreConfig &c : configs) {
        const double t0 = nowS();
        explorer.measureIpc(c);
        const double dt = nowS() - t0;
        ipc_s[configKey(c)] = dt;
        r.ipcS += dt;
    }
    for (std::size_t i = 0; i < pairs.size(); ++i)
        r.pointS.push_back(synth_s[i] + ipc_s[configKey(pairs[i].config)]);

    const std::vector<workload::BenchmarkProfile> profiles =
        workload::paperWorkloads();
    struct Sim
    {
        double busyS = 0.0;
        std::uint64_t cycles = 0;
    };
    const std::vector<Sim> sims = parallel::orderedMap<Sim>(
        configs.size() * profiles.size(), [&](std::size_t k) {
            workload::TraceGenerator trace(profiles[k % profiles.size()],
                                           seed);
            arch::CoreModel model(configs[k / profiles.size()], trace);
            const double t0 = nowS();
            const arch::SimStats stats = model.run(kInstructions);
            return Sim{nowS() - t0, stats.cycles};
        });
    for (const Sim &s : sims) {
        r.archBusyS += s.busyS;
        r.archCycles += s.cycles;
    }
    r.ipcUnique = sims.size();

    std::vector<std::pair<const Evaluated *, arch::Region>> blocks;
    std::set<std::tuple<const liberty::CellLibrary *, int, int, int, int>>
        seen_blocks;
    for (const Evaluated &p : pairs)
        for (int i = 0; i < arch::numRegions; ++i) {
            const auto region = static_cast<arch::Region>(i);
            if (seen_blocks
                    .emplace(p.library, i, p.config.fetchWidth,
                             p.config.aluPipes, p.config.stagesIn(region))
                    .second)
                blocks.emplace_back(&p, region);
        }
    const std::vector<std::pair<double, double>> sta_s =
        parallel::orderedMap<std::pair<double, double>>(
            blocks.size(), [&](std::size_t k) {
                const Evaluated &p = *blocks[k].first;
                const arch::Region region = blocks[k].second;
                const netlist::Netlist block = netlist::bufferize(
                    core::buildRegionBlock(region, p.config), 6);
                const double t0 = nowS();
                const sta::PipelineReport report =
                    sta::Pipeliner(*p.library)
                        .pipeline(block, p.config.stagesIn(region));
                const double t1 = nowS();
                sta::StaEngine(*p.library).analyze(report.netlist);
                return std::make_pair(t1 - t0, nowS() - t1);
            });
    for (const auto &[pipeline_s, analyze_s] : sta_s) {
        r.pipelineS += pipeline_s;
        r.analyzeS += analyze_s;
    }
    return r;
}

class WidthGrid final : public Workload
{
  public:
    explicit WidthGrid(std::uint64_t trace_seed) : traceSeed(trace_seed) {}

    Outcome
    setup() override
    {
        organic.emplace(timed("liberty.nominal_s", [] {
            return liberty::makeOrganicLibrary();
        }));
        Outcome out;
        out.checks["organic_lib"] = libDigest(*organic);
        return out;
    }

    Outcome
    rep() override
    {
        core::ExplorerConfig config;
        config.instructions = kInstructions;
        config.seed = traceSeed;
        core::ArchExplorer explorer(*organic, config);
        const core::WidthSweep sweep = timed("core.width_sweep", [&] {
            return explorer.widthSweep(1, 6, 3, 7);
        });

        Digest ipc, period;
        evaluated.clear();
        const core::DesignPoint *best = nullptr;
        for (const auto &row : sweep.points)
            for (const core::DesignPoint &pt : row) {
                for (const double v : pt.ipc)
                    ipc.num(v);
                period.num(pt.timing.clockPeriod);
                evaluated.push_back({&*organic, pt.config});
                if (best == nullptr || pt.performance > best->performance)
                    best = &pt;
            }
        Outcome out;
        out.items = evaluated.size();
        out.checks["ipc"] = ipc.str();
        out.checks["clock_period"] = period.str();
        out.checks["optimum"] =
            "fe=" + std::to_string(best->config.fetchWidth) +
            " be=" + std::to_string(best->config.backendWidth());
        return out;
    }

    Replay
    replay() const override
    {
        return replayPoints(evaluated, traceSeed);
    }

    std::uint64_t
    instructionsPerRun() const override
    {
        return kInstructions;
    }

  private:
    std::uint64_t traceSeed;
    std::optional<liberty::CellLibrary> organic;
    std::vector<Evaluated> evaluated;
};

class YieldSignoff final : public Workload
{
  public:
    YieldSignoff(std::uint64_t trace_seed, std::uint64_t mc_seed)
        : traceSeed(trace_seed), mcSeed(mc_seed)
    {}

    Outcome
    setup() override
    {
        liberty::McConfig mc;
        mc.samples = kMcSamples;
        mc.seed = mcSeed;
        mc.baseName = "organic_mc";
        organic.emplace(timed("liberty.mc_s", [&] {
            return liberty::McCharacterizer(mc).run();
        }));
        // A mature process: ~1.5% per-entry sigma puts the SS corner
        // ~4.5% off mean, as in yield_sweep.
        silicon.emplace(timed("liberty.silicon_s", [] {
            return liberty::scaledCorners(liberty::makeSiliconLibrary(),
                                          0.015, 3.0, "silicon");
        }));
        Outcome out;
        checkStatLibrary(out, "organic", *organic);
        checkStatLibrary(out, "silicon", *silicon);
        return out;
    }

    Outcome
    rep() override
    {
        core::YieldExplorerConfig config;
        config.targetYield = kTargetYield;
        config.explorer.instructions = kInstructions;
        config.explorer.seed = traceSeed;
        core::YieldExplorer organic_x(*organic, config);
        core::YieldExplorer silicon_x(*silicon, config);
        const arch::CoreConfig base = arch::baselineConfig();

        const core::YieldCurve organic_curve =
            timed("core.yield_curve",
                  [&] { return organic_x.yieldCurve(base, 13); });
        const core::YieldCurve silicon_curve =
            timed("core.yield_curve",
                  [&] { return silicon_x.yieldCurve(base, 13); });
        const core::YieldDepthSweep depth =
            timed("core.depth_sweep",
                  [&] { return organic_x.depthSweepAtYield(15); });
        const core::YieldWidthSweep width = timed("core.width_sweep", [&] {
            return organic_x.widthSweepAtYield(1, 3, 3, 5);
        });

        evaluated = {{&organic->mean, base}, {&organic->slow, base},
                     {&silicon->mean, base}, {&silicon->slow, base}};
        Digest ipc, period;
        ipc.num(organic_curve.meanIpc).num(silicon_curve.meanIpc);
        for (const core::YieldCurve *c : {&organic_curve, &silicon_curve})
            period.num(c->meanPeriod).num(c->slowPeriod);
        std::vector<const core::YieldDesignPoint *> points;
        for (const core::YieldDesignPoint &pt : depth.points)
            points.push_back(&pt);
        for (const auto &row : width.points)
            for (const core::YieldDesignPoint &pt : row)
                points.push_back(&pt);
        for (const core::YieldDesignPoint *pt : points) {
            for (const double v : pt->nominal.ipc)
                ipc.num(v);
            period.num(pt->nominal.timing.clockPeriod).num(pt->slowPeriod);
            evaluated.push_back({&organic->mean, pt->nominal.config});
            evaluated.push_back({&organic->slow, pt->nominal.config});
        }

        const core::YieldDesignPoint *best_mean = &depth.points.front();
        const core::YieldDesignPoint *best_yield = best_mean;
        for (const core::YieldDesignPoint &pt : depth.points) {
            if (pt.nominal.performance > best_mean->nominal.performance)
                best_mean = &pt;
            if (pt.yieldPerformance > best_yield->yieldPerformance)
                best_yield = &pt;
        }
        const core::YieldDesignPoint *best_width = &width.points[0][0];
        for (const auto &row : width.points)
            for (const core::YieldDesignPoint &pt : row)
                if (pt.yieldPerformance > best_width->yieldPerformance)
                    best_width = &pt;

        Outcome out;
        out.items = 2 + points.size();
        out.checks["ipc"] = ipc.str();
        out.checks["clock_period"] = period.str();
        out.checks["signoff_hz"] =
            "organic=" +
            fmt(organic_curve.frequencyAtYield(kTargetYield)) +
            " silicon=" +
            fmt(silicon_curve.frequencyAtYield(kTargetYield));
        out.checks["optimum"] =
            "depth_mean=" +
            std::to_string(best_mean->nominal.config.totalStages()) +
            " depth_yield=" +
            std::to_string(best_yield->nominal.config.totalStages()) +
            " width_yield=fe" +
            std::to_string(best_width->nominal.config.fetchWidth) + "xbe" +
            std::to_string(best_width->nominal.config.backendWidth());
        return out;
    }

    Replay
    replay() const override
    {
        return replayPoints(evaluated, traceSeed);
    }

    std::uint64_t
    instructionsPerRun() const override
    {
        return kInstructions;
    }

  private:
    std::uint64_t traceSeed;
    std::uint64_t mcSeed;
    std::optional<liberty::StatLibrary> organic;
    std::optional<liberty::StatLibrary> silicon;
    std::vector<Evaluated> evaluated;
};

class Characterize final : public Workload
{
  public:
    explicit Characterize(std::uint64_t mc_seed) : mcSeed(mc_seed) {}

    /**
     * The timed region takes no library as input. Set-up builds the
     * Monte Carlo characterizer and a cold nominal library, whose bytes
     * are checked like the rep's; constructing the characterizer alone
     * takes well under a millisecond, too little to time steadily on a
     * shared host.
     */
    Outcome
    setup() override
    {
        liberty::McConfig config;
        config.samples = kMcSamples;
        config.seed = mcSeed;
        mc.emplace(config);
        Outcome out;
        out.checks["nominal_lib"] = libDigest(timed(
            "liberty.nominal_s", [] { return liberty::makeOrganicLibrary(); }));
        return out;
    }

    Outcome
    rep() override
    {
        const liberty::CellLibrary nominal = timed(
            "liberty.nominal_s", [] { return liberty::makeOrganicLibrary(); });
        const liberty::StatLibrary stat =
            timed("liberty.mc_s", [&] { return mc->run(); });
        Outcome out;
        out.items = arcPoints(nominal) +
                    static_cast<std::uint64_t>(stat.samples) *
                        arcPoints(stat.mean);
        out.checks["nominal_lib"] = libDigest(nominal);
        checkStatLibrary(out, "mc", stat);
        return out;
    }

  private:
    std::uint64_t mcSeed;
    std::optional<liberty::McCharacterizer> mc;
};

} // namespace

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Spans &
spans()
{
    static Spans log;
    return log;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t trace_seed,
             std::uint64_t mc_seed)
{
    if (name == "width_grid")
        return std::make_unique<WidthGrid>(trace_seed);
    if (name == "yield_signoff")
        return std::make_unique<YieldSignoff>(trace_seed, mc_seed);
    if (name == "characterize")
        return std::make_unique<Characterize>(mc_seed);
    return nullptr;
}

} // namespace perfbench
