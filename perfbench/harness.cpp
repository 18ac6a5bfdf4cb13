/**
 * @file
 * End-to-end benchmark harness: runs one workload (workloads.hpp) for
 * a fixed measuring time, checks its outputs, and prints the metrics
 * as one JSON object on the last line of standard output.
 *
 *   otft_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--reference FILE] [--record] [--source-digest D]
 *
 * --trace 0 prints the end-to-end metrics (medians over reps); --trace 1
 * prints the per-layer metrics of a traced run. --record prints the
 * check values of this (workload, seed) as a reference entry instead.
 * perfbench/run.py builds this binary and is the command to use.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "device/pentacene.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/perf_report.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

extern char **environ;

namespace perfbench {
namespace {

using namespace otft;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool record = false;
    std::string reference;
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "otft_perfbench: %s\nusage: otft_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--reference "
                 "FILE] [--record] [--source-digest D]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record") {
            o.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = !value.empty() && value[0] != '-' && *end == '\0';
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && o.seconds > 0.0;
        } else if (arg == "--trace") {
            have_trace = value == "0" || value == "1";
            o.trace = value == "1";
        } else if (arg == "--reference") {
            o.reference = value;
        } else if (arg == "--source-digest") {
            o.sourceDigest = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_seed || !have_seconds || !have_trace || o.workload.empty())
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

/**
 * The explorer trace seed of --seed N; the Monte Carlo seed is N. Seed
 * 1 is the figure benches' defaults (trace seed 7, MC seed 1).
 */
std::uint64_t
traceSeed(std::uint64_t seed)
{
    return seed + 6;
}

double
cpuS()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec +
                                      u.ru_stime.tv_usec);
}

double
median(const std::vector<double> &v)
{
    return perf::summarizeTimes(v).medianS;
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    double a = 0, b = 0, c = 0;
    if (!(in >> a >> b >> c))
        return "unknown";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", a, b, c);
    return buf;
}

/** CPUs this process may run on (what `nproc` prints). */
int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return parallel::hardwareJobs();
    return std::max(1, CPU_COUNT(&set));
}

/**
 * Remove every OTFT_* variable before any layer reads one: they change
 * jobs, batch lanes, Monte Carlo samples, the cache directory and the
 * profiler/diag/metrics exporters. Progress rendering is pinned off.
 * @return the names removed, for the fingerprint.
 */
std::vector<std::string>
neutralizeEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        if (entry.rfind("OTFT_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    setenv("OTFT_PROGRESS", "0", 1);
    return names;
}

/** Registry counters plus accumulator sums, by name. */
std::map<std::string, double>
registryValues()
{
    const stats::Snapshot snap = stats::Registry::instance().snapshot();
    std::map<std::string, double> v = snap.scalars;
    for (const auto &[name, acc] : snap.accumulators)
        v[name] = acc.sum;
    return v;
}

std::map<std::string, double>
operator-(const std::map<std::string, double> &after,
          const std::map<std::string, double> &before)
{
    std::map<std::string, double> d = after;
    for (const auto &[name, value] : before)
        d[name] -= value;
    return d;
}

double
get(const std::map<std::string, double> &m, const std::string &name)
{
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Attempted/failed operations and checks of the whole run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Count the outcome's operations and validations, and compare its
     * checks with `expected` (the reference, or the first outcome of
     * the same phase when there is none).
     */
    void
    account(const Outcome &out, const Checks &expected, const char *phase)
    {
        attempted += out.items + static_cast<std::uint64_t>(out.validations);
        failed += out.invalid.size();
        for (const std::string &error : out.invalid)
            std::fprintf(stderr, "perfbench: %s validation failed: %s\n",
                         phase, error.c_str());
        Checks all = expected;
        all.insert(out.checks.begin(), out.checks.end());
        for (const auto &[name, value] : all) {
            ++attempted;
            const auto want = expected.find(name);
            const auto got = out.checks.find(name);
            if (want != expected.end() && got != out.checks.end() &&
                want->second == got->second)
                continue;
            ++failed;
            std::fprintf(stderr,
                         "perfbench: %s check '%s' mismatch: got '%s' "
                         "want '%s'\n",
                         phase, name.c_str(),
                         got == out.checks.end() ? "(none)"
                                                 : got->second.c_str(),
                         want == expected.end() ? "(none)"
                                                : want->second.c_str());
        }
    }

    void
    exception(const char *phase, const std::exception &e,
              std::uint64_t items)
    {
        attempted += std::max<std::uint64_t>(items, 1);
        failed += std::max<std::uint64_t>(items, 1);
        std::fprintf(stderr, "perfbench: %s threw: %s\n", phase, e.what());
    }
};

/** Reference checks of one (workload, seed), if recorded. */
struct Reference
{
    bool found = false;
    Checks setup;
    Checks rep;
};

Checks
toChecks(const json::Value &object)
{
    Checks c;
    for (const auto &[name, value] : object.asObject())
        c[name] = value.asString();
    return c;
}

Reference
loadReference(const Options &o)
{
    Reference ref;
    if (o.reference.empty())
        return ref;
    std::ifstream in(o.reference);
    if (!in)
        return ref;
    const json::Value doc = json::parse(in);
    const std::string key = o.workload + "/seed=" + std::to_string(o.seed);
    const json::Value &entries = doc.at("entries");
    if (!entries.has(key))
        return ref;
    ref.found = true;
    ref.setup = toChecks(entries.at(key).at("setup"));
    ref.rep = toChecks(entries.at(key).at("rep"));
    return ref;
}

/** Writes one JSON object, members in insertion order. */
class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "\"" : ", \"") + json::escape(key) +
                "\": " + json;
        return *this;
    }

    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + json::escape(value) + "\"");
    }

    JsonObject &
    num(const std::string &key, double value)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return raw(key, buf);
    }

    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

std::string
checksJson(const Checks &c)
{
    JsonObject o;
    for (const auto &[name, value] : c)
        o.str(name, value);
    return o.text();
}

std::string
numbersJson(const std::vector<double> &v)
{
    std::string s;
    char buf[32];
    for (const double x : v) {
        std::snprintf(buf, sizeof buf, "%.6g", x);
        s += (s.empty() ? "" : ", ") + std::string(buf);
    }
    return "[" + s + "]";
}

/** ns per drainCurrent() of the golden level-61 device over the
 *  characterization bias range (node voltages within VSS..VDD). */
double
deviceEvalNs()
{
    const auto model = device::makePentaceneGolden();
    std::vector<double> bias;
    for (int i = 0; i <= 40; ++i)
        bias.push_back(-20.0 + i);
    std::vector<double> per_eval;
    volatile double sink = 0.0;
    const double start = nowS();
    while (per_eval.size() < 5 || nowS() - start < 0.2) {
        double acc = 0.0;
        const double t0 = nowS();
        for (const double vgs : bias)
            for (const double vds : bias)
                acc += model->drainCurrent(vgs, vds);
        per_eval.push_back((nowS() - t0) * 1e9 /
                           static_cast<double>(bias.size() * bias.size()));
        sink = sink + acc;
    }
    return median(per_eval);
}

/** ns per TraceGenerator::next() over the seven paper workloads. */
double
traceGenNsPerInstr(std::uint64_t seed)
{
    constexpr std::uint64_t n = 200000;
    std::vector<double> per_instr;
    volatile std::uint64_t sink = 0;
    for (const workload::BenchmarkProfile &profile :
         workload::paperWorkloads()) {
        workload::TraceGenerator gen(profile, seed);
        std::uint64_t acc = 0;
        const double t0 = nowS();
        for (std::uint64_t i = 0; i < n; ++i)
            acc += gen.next().pc;
        per_instr.push_back((nowS() - t0) * 1e9 / static_cast<double>(n));
        sink = sink + acc;
    }
    return median(per_instr);
}


/** What one run measured, phase by phase. */
struct RunData
{
    Tally tally;
    Reference ref;
    Checks setupExpected, repExpected;
    std::vector<double> setupS;
    /** Registry deltas over the last set-up and the first traced rep. */
    std::map<std::string, double> setupDelta, repDelta;
    /** Pool accounting over the first traced rep. */
    parallel::PoolStats pool;
    /** Per rep: wall s, CPU s, items per wall s. */
    std::vector<double> wall, cpu, pointsPerS;
    std::vector<double> tracedWall, tracedCpu;
    std::string loadStart, loadSetup, loadEnd;
};

/**
 * Build the workload's inputs from an empty result cache: at least
 * three times and for at least 2 s (the median is setup_s); once for
 * a traced or recording run.
 */
void
setUp(Workload &w, const Options &o, RunData &d)
{
    d.setupExpected = d.ref.setup;
    const bool once = o.trace || o.record;
    const double start = nowS();
    while (d.setupS.size() < (once ? 1u : 3u) ||
           (!once && d.setupS.size() < 200 && nowS() - start < 2.0)) {
        cache::ResultCache::instance().clear();
        spans().on = o.trace;
        const auto before = registryValues();
        const double t0 = nowS();
        Outcome out;
        try {
            out = w.setup();
        } catch (const std::exception &e) {
            spans().on = false;
            d.tally.exception("set-up", e, 1);
            return;
        }
        d.setupS.push_back(nowS() - t0);
        d.setupDelta = registryValues() - before;
        spans().on = false;
        if (!d.ref.found && d.setupS.size() == 1)
            d.setupExpected = out.checks;
        d.tally.account(out, d.setupExpected, "set-up");
    }
}

/**
 * Timed reps until --seconds have passed, each from an empty result
 * cache. A traced run alternates an untraced rep with a traced one
 * (pool stats and spans on), so trace_overhead_frac compares the two
 * inside one process.
 */
void
measure(Workload &w, const Options &o, RunData &d)
{
    d.repExpected = d.ref.rep;
    std::uint64_t items = 1;
    const double start = nowS();
    while (d.tally.failed == 0) {
        for (const bool watch : {false, true}) {
            if (watch && !o.trace)
                continue;
            cache::ResultCache::instance().clear();
            const bool first_traced = watch && d.tracedWall.empty();
            spans().on = first_traced;
            parallel::resetPoolStats();
            parallel::setPoolStatsEnabled(watch);
            const auto before = registryValues();
            const double c0 = cpuS();
            const double t0 = nowS();
            Outcome out;
            try {
                out = w.rep();
            } catch (const std::exception &e) {
                d.tally.exception("rep", e, items);
            }
            const double wall = nowS() - t0;
            const double cpu = cpuS() - c0;
            const auto delta = registryValues() - before;
            parallel::setPoolStatsEnabled(false);
            spans().on = false;
            if (d.tally.failed > 0)
                return;
            if (first_traced) {
                d.pool = parallel::poolStatsSnapshot();
                d.repDelta = delta;
            }
            items = out.items;
            out.checks["arch_cycles"] = std::to_string(static_cast<
                std::uint64_t>(get(delta, "arch.cycles.simulated")));
            if (!d.ref.found && d.wall.empty())
                d.repExpected = out.checks;
            d.tally.account(out, d.repExpected, "rep");
            if (watch) {
                d.tracedWall.push_back(wall);
                d.tracedCpu.push_back(cpu);
            } else {
                d.wall.push_back(wall);
                d.cpu.push_back(cpu);
                d.pointsPerS.push_back(static_cast<double>(out.items) / wall);
            }
        }
        if (o.record || nowS() - start >= o.seconds)
            return;
    }
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<Metric>
endToEndMetrics(const RunData &d)
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return {
        {"wall_s", median(d.wall), "s"},
        {"points_per_s", median(d.pointsPerS), "1/s"},
        {"cpu_s", median(d.cpu), "s"},
        {"setup_s", median(d.setupS), "s"},
        {"peak_rss_mb", static_cast<double>(u.ru_maxrss) / 1024.0, "MB"},
    };
}

std::vector<Metric>
layerMetrics(const Workload &w, const Options &o, const RunData &d)
{
    // CoreModel::run's default warmup, which ArchExplorer::measureIpc uses.
    constexpr double warmup_instructions = 10000.0;
    const Replay r = w.replay();
    const auto rep = [&](const std::string &name) {
        return get(d.repDelta, name);
    };
    // liberty and circuit run in set-up on the explorer workloads and
    // in the rep on characterize: count both windows.
    const auto lib = [&](const std::string &name) {
        return get(d.setupDelta, name) + rep(name);
    };
    const double cycles = rep("arch.cycles.simulated");
    const double instructions = rep("arch.instructions.simulated");
    const double per_run = static_cast<double>(w.instructionsPerRun());
    const double ipc_runs =
        per_run > 0.0 ? std::floor(instructions / per_run) : 0.0;
    const double ns_per_cycle =
        ratio(r.archBusyS * 1e9, static_cast<double>(r.archCycles));
    const double region_hits = rep("synth.region_cache.hits");
    const double cache_hits = rep("cache.hits");
    const double lookups = cache_hits + rep("cache.misses");
    // Both solver engines: scalar counters plus batched lane counters.
    const double solves =
        lib("circuit.newton.solves") + lib("circuit.batch.steps");
    const double iterations = lib("circuit.newton.iterations") +
                              lib("circuit.batch.newton.iterations");
    const double accepted =
        lib("circuit.transient.steps") + lib("circuit.batch.steps") -
        lib("circuit.transient.retries") -
        lib("circuit.transient.lte_rejections") -
        lib("circuit.batch.retries") - lib("circuit.batch.lte_rejections");
    const double factorizations = lib("circuit.lu.factorizations") +
                                  lib("circuit.batch.lu.factor_lanes");
    double worker_max = 0.0, worker_sum = 0.0;
    for (const std::uint64_t ns : d.pool.workerBusyNs) {
        worker_sum += static_cast<double>(ns);
        worker_max = std::max(worker_max, static_cast<double>(ns));
    }
    const double worker_mean =
        ratio(worker_sum, static_cast<double>(d.pool.workerBusyNs.size()));
    const double jobs = parallel::jobs();
    std::vector<double> point_ms;
    for (const double s : r.pointS)
        point_ms.push_back(s * 1e3);
    const auto span = [&](const std::string &name) {
        const auto it = spans().seconds.find(name);
        return it == spans().seconds.end() ? 0.0 : it->second;
    };
    return {
        {"arch.run_s", ns_per_cycle * 1e-9 * cycles, "s"},
        {"arch.ns_per_cycle", ns_per_cycle, "ns"},
        {"arch.cycles", cycles, "count"},
        {"arch.instructions", instructions, "count"},
        {"arch.sim_minstr_per_s",
         ratio(1e-6 * (instructions + warmup_instructions * ipc_runs),
               median(d.wall)),
         "Minstr/s"},
        {"workload.gen_ns_per_instr", traceGenNsPerInstr(traceSeed(o.seed)),
         "ns"},
        {"core.synth_s", r.synthS, "s"},
        {"core.ipc_s", r.ipcS, "s"},
        {"core.point_ms_p50", point_ms.empty() ? 0.0 : median(point_ms),
         "ms"},
        {"core.ipc_runs", ipc_runs, "count"},
        {"core.ipc_unique", static_cast<double>(r.ipcUnique), "count"},
        {"core.ipc_useful_frac",
         ratio(static_cast<double>(r.ipcUnique), ipc_runs), "ratio"},
        {"core.region_hit_frac",
         ratio(region_hits, region_hits + rep("synth.region_cache.misses")),
         "ratio"},
        {"sta.analyze_s", r.analyzeS, "s"},
        {"sta.pipeline_s", r.pipelineS, "s"},
        {"netlist.gates", rep("netlist.gates.created"), "count"},
        {"liberty.nominal_s", span("liberty.nominal_s"), "s"},
        {"liberty.mc_s", span("liberty.mc_s"), "s"},
        {"liberty.arc_points", lib("liberty.points.measured"), "count"},
        {"circuit.newton_solves", solves, "count"},
        {"circuit.newton_iters_per_solve", ratio(iterations, solves),
         "ratio"},
        {"circuit.newton_s", lib("circuit.newton.solve_time"), "s"},
        {"circuit.transient_s", lib("time.circuit.transient.run"), "s"},
        {"circuit.lu_per_step", ratio(factorizations, accepted), "ratio"},
        {"device.eval_ns", deviceEvalNs(), "ns"},
        {"parallel.jobs", jobs, "count"},
        // Process CPU time, not the pool's caller counter: a region the
        // caller opens inside its own chunk counts twice there.
        {"parallel.busy_frac",
         ratio(d.tracedCpu.front(), d.tracedWall.front() * jobs), "ratio"},
        {"parallel.imbalance", ratio(worker_max, worker_mean), "ratio"},
        {"cache.lookups", lookups, "count"},
        {"cache.hit_frac", ratio(cache_hits, lookups), "ratio"},
        {"trace_overhead_frac",
         median(d.tracedWall) / median(d.wall) - 1.0, "ratio"},
    };
}

/** Host fingerprint and raw samples: one JSON line before the result. */
void
printFingerprint(const Options &o, const RunData &d,
                 const std::vector<std::string> &removed_env)
{
    const perf::EnvFingerprint env = perf::currentEnvironment();
    std::string removed;
    for (const std::string &name : removed_env)
        removed += (removed.empty() ? "\"" : ", \"") + name + "\"";
    JsonObject span_json;
    for (const auto &[name, seconds] : spans().seconds)
        span_json.num(name, seconds);
    const perf::TimingSummary setups = perf::summarizeTimes(d.setupS);
    const std::string fingerprint =
        JsonObject()
            .str("workload", o.workload)
            .num("seed", static_cast<double>(o.seed))
            .num("trace_seed", static_cast<double>(traceSeed(o.seed)))
            .num("mc_seed", static_cast<double>(o.seed))
            .num("trace", o.trace ? 1 : 0)
            .raw("reference", d.ref.found ? "true" : "false")
            .num("nproc", nproc())
            .num("hardware_jobs", parallel::hardwareJobs())
            .num("jobs", parallel::jobs())
            .num("batch_lanes", parallel::batchLanes())
            .str("compiler", env.compiler)
            .str("build_type", env.buildType)
            .str("git_sha", env.gitSha)
            .str("source_digest", o.sourceDigest)
            .str("host", env.host)
            .str("os", env.os)
            .str("utc", env.timestampUtc)
            .raw("loadavg", JsonObject()
                                .str("start", d.loadStart)
                                .str("after_setup", d.loadSetup)
                                .str("end", d.loadEnd)
                                .text())
            .raw("otft_env_removed", "[" + removed + "]")
            .raw("otft_env_set", "[\"OTFT_PROGRESS=0\"]")
            .text();
    const std::string samples =
        JsonObject()
            .raw("setup_s", JsonObject()
                                .num("n", static_cast<double>(setups.reps))
                                .num("median", setups.medianS)
                                .num("min", setups.minS)
                                .num("p95", setups.p95S)
                                .text())
            .raw("wall_s", numbersJson(d.wall))
            .raw("cpu_s", numbersJson(d.cpu))
            .raw("traced_wall_s", numbersJson(d.tracedWall))
            .raw("traced_cpu_s", numbersJson(d.tracedCpu))
            .text();
    std::printf("%s\n", JsonObject()
                            .raw("fingerprint", fingerprint)
                            .raw("samples", samples)
                            .raw("spans_s", span_json.text())
                            .text()
                            .c_str());
}

int
run(const Options &o, const std::vector<std::string> &removed_env)
{
    parallel::setJobs(std::min(parallel::hardwareJobs(), nproc()));
    const std::unique_ptr<Workload> w =
        makeWorkload(o.workload, traceSeed(o.seed), o.seed);
    if (!w)
        usage("unknown workload '" + o.workload + "'");

    RunData d;
    d.ref = loadReference(o);
    d.loadStart = loadAverage();
    setUp(*w, o, d);
    d.loadSetup = loadAverage();
    if (d.tally.failed == 0)
        measure(*w, o, d);
    d.loadEnd = loadAverage();
    const bool ok = d.tally.failed == 0;

    if (o.record) {
        std::printf("{\"reference\": {\"setup\": %s, \"rep\": %s}, "
                    "\"correct\": %s}\n",
                    checksJson(d.setupExpected).c_str(),
                    checksJson(d.repExpected).c_str(),
                    ok ? "true" : "false");
        return ok ? 0 : 1;
    }

    std::vector<Metric> metrics;
    if (ok)
        metrics = o.trace ? layerMetrics(*w, o, d) : endToEndMetrics(d);
    printFingerprint(o, d, removed_env);
    JsonObject metric_json;
    for (const Metric &m : metrics)
        metric_json.raw(m.name, JsonObject()
                                    .num("value", m.value)
                                    .str("unit", m.unit)
                                    .text());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ok ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(d.tally.attempted, 1)),
                static_cast<unsigned long long>(d.tally.failed),
                metric_json.text().c_str());
    return ok ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const std::vector<std::string> removed =
        perfbench::neutralizeEnvironment();
    const perfbench::Options options = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(options, removed);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "otft_perfbench: %s\n", e.what());
        return 1;
    }
}
