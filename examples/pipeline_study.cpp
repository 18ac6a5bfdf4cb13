/**
 * @file
 * Custom pipeline-depth study on a chosen workload.
 *
 * A downstream-user version of the paper's Fig. 11 experiment: pick a
 * workload and a technology on the command line, sweep pipeline depth
 * with the critical-stage cutting methodology, and emit a CSV series
 * ready for plotting.
 *
 * Usage: ./build/examples/pipeline_study [workload] [organic|silicon]
 *        [max_stages]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "core/explorer.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace otft;

int
main(int argc, char **argv)
try {
    cli::Session session("pipeline_study", argc, argv);
    if (argc > 4)
        fatal("usage: pipeline_study [workload] [organic|silicon] "
              "[max_stages]");
    const std::string workload = argc > 1 ? argv[1] : "gzip";
    const std::string tech = argc > 2 ? argv[2] : "organic";
    if (tech != "organic" && tech != "silicon")
        fatal("pipeline_study: technology must be organic or silicon, "
              "got '", tech, "'");
    const int max_stages =
        argc > 3 ? cli::parsePositiveInt(argv[3], "max_stages") : 15;

    const auto profile = workload::profileByName(workload);
    const liberty::CellLibrary library =
        tech == "silicon" ? liberty::makeSiliconLibrary()
                          : liberty::cachedOrganicLibrary();

    std::printf("# pipeline depth study: %s on %s (to %d stages)\n",
                workload.c_str(), library.name().c_str(), max_stages);

    core::ExplorerConfig config;
    config.instructions = 60000;
    core::ArchExplorer explorer(library, config);

    Table csv({"stages", "frequency_hz", "ipc", "performance",
               "area_m2", "critical_region"});

    arch::CoreConfig candidate = arch::baselineConfig();
    double best_perf = 0.0;
    int best_stage = 0;
    while (true) {
        const auto timing =
            explorer.synthesizer().synthesize(candidate);
        workload::TraceGenerator trace(profile, config.seed);
        arch::CoreModel core(candidate, trace);
        const double ipc = core.run(config.instructions).ipc();
        const double perf = ipc * timing.frequency;
        if (perf > best_perf) {
            best_perf = perf;
            best_stage = candidate.totalStages();
        }
        csv.row()
            .add(static_cast<long long>(candidate.totalStages()))
            .add(timing.frequency, 6)
            .add(ipc, 4)
            .add(perf, 6)
            .add(timing.area, 4)
            .add(arch::toString(timing.critical));
        if (candidate.totalStages() >= max_stages)
            break;
        candidate = explorer.synthesizer().deepen(candidate);
    }

    csv.renderCsv(std::cout);
    std::printf("# optimum: %d stages\n", best_stage);
    return 0;
} catch (const FatalError &) {
    return 1; // fatal() has already printed the reason
}
