/**
 * @file
 * The benchmark's three workloads, driven only through the public
 * APIs of the liberty, core and arch layers.
 *
 *  - width_grid: the Fig. 13 front-end 1-6 x back-end 3-7 grid on the
 *    organic library (ArchExplorer::widthSweep).
 *  - yield_signoff: the yield_sweep exploration (YieldExplorer curves,
 *    depth sweep and width corner at 99% yield) on Monte Carlo organic
 *    corners and analytic silicon corners.
 *  - characterize: a cold makeOrganicLibrary() plus one
 *    McCharacterizer::run().
 *
 * Each workload splits into a set-up (building the inputs of the timed
 * region from device parameters) and a timed rep. Both return the
 * outputs the benchmark checks, reduced to exact digests.
 */

#ifndef OTFT_PERFBENCH_WORKLOADS_HPP
#define OTFT_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Check name -> exact value (a digest or a formatted number). */
using Checks = std::map<std::string, std::string>;

/** What one set-up or rep produced. */
struct Outcome
{
    /** Operations completed: design points or NLDM arc points. */
    std::uint64_t items = 0;
    /** Outputs compared against the reference or the first rep. */
    Checks checks;
    /** Library validations run, and the errors they reported. */
    int validations = 0;
    std::vector<std::string> invalid;
};

/** Per-layer busy time measured by replaying a rep's design points. */
struct Replay
{
    double synthS = 0.0;
    double ipcS = 0.0;
    /** Per distinct (library, config): synthesis + IPC, seconds. */
    std::vector<double> pointS;
    double archBusyS = 0.0;
    std::uint64_t archCycles = 0;
    double pipelineS = 0.0;
    double analyzeS = 0.0;
    /** Distinct (config, workload, seed, instructions) simulations. */
    std::uint64_t ipcUnique = 0;
};

/** Benchmark-side wall-clock spans around public layer calls. */
struct Spans
{
    bool on = false;
    std::map<std::string, double> seconds;
};

/** The process-wide span log (only the benchmark writes it). */
Spans &spans();

/** Monotonic wall clock, seconds. */
double nowS();

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input of the timed region. */
    virtual Outcome setup() = 0;

    /** One timed rep on the inputs of the last set-up. */
    virtual Outcome rep() = 0;

    /**
     * Re-run the last rep's distinct design points layer by layer,
     * timing each public call on its calling thread. Workloads that
     * run no core/arch code return an empty Replay.
     */
    virtual Replay replay() const { return {}; }

    /** Instructions measured per IPC simulation (0: no simulation). */
    virtual std::uint64_t instructionsPerRun() const { return 0; }
};

/** The named workload, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t trace_seed,
                                       std::uint64_t mc_seed);

} // namespace perfbench

#endif // OTFT_PERFBENCH_WORKLOADS_HPP
