/**
 * @file
 * Biodegradable environmental sensor node sizing study.
 *
 * The paper's flagship application (Sec. 2): sensors that decompose
 * in place instead of becoming e-waste. A sensing node must process
 * each sample within a deadline; this example explores organic core
 * configurations (depth x width) and picks the smallest design that
 * meets a target sample-processing rate, then reports how much area
 * and static power the deadline costs.
 *
 * Build & run:  ./build/examples/sensor_node [samples_per_second]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/explorer.hpp"
#include "liberty/characterizer.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace otft;

namespace {

/** Instructions to process one environmental sample (filtering,
 *  calibration, thresholding, packetization). */
constexpr double instructionsPerSample = 2000.0;

} // namespace

int
main(int argc, char **argv)
try {
    cli::Session session("sensor_node", argc, argv);
    if (argc > 2)
        fatal("usage: sensor_node [samples_per_second]");
    double samples_per_second = 0.05; // one sample every 20 s
    if (argc > 1) {
        char *end = nullptr;
        samples_per_second = std::strtod(argv[1], &end);
        if (end == argv[1] || *end != '\0' || !(samples_per_second > 0.0))
            fatal("sensor_node: samples_per_second must be a positive "
                  "number, got '", argv[1], "'");
    }
    const double required_ips =
        samples_per_second * instructionsPerSample;

    std::printf("Biodegradable sensor node study\n");
    std::printf("target: %.2f samples/s -> %.1f instructions/s\n\n",
                samples_per_second, required_ips);

    const auto organic = liberty::cachedOrganicLibrary();
    core::ExplorerConfig config;
    config.instructions = 30000;
    core::ArchExplorer explorer(organic, config);

    // Candidate designs: three widths x three depths.
    std::vector<arch::CoreConfig> candidates;
    for (int fe : {1, 2}) {
        for (int alu : {1, 2}) {
            arch::CoreConfig base = arch::baselineConfig();
            base.fetchWidth = fe;
            base.aluPipes = alu;
            candidates.push_back(base);
            // A deepened variant of the same widths.
            auto deep = base;
            for (int cut = 0; cut < 3; ++cut)
                deep = explorer.synthesizer().deepen(deep);
            candidates.push_back(deep);
        }
    }

    Table table({"config", "freq", "mean IPC", "instr/s", "area",
                 "meets deadline"});
    const core::DesignPoint *best = nullptr;
    std::vector<core::DesignPoint> points;
    points.reserve(candidates.size());
    for (const auto &candidate : candidates)
        points.push_back(explorer.evaluate(candidate));

    for (const auto &pt : points) {
        const bool ok = pt.performance >= required_ips;
        table.row()
            .add(pt.config.describe())
            .add(formatSi(pt.timing.frequency, "Hz"))
            .add(pt.meanIpc, 3)
            .add(pt.performance, 3)
            .add(formatNumber(pt.timing.area * 1e6, 3) + " mm^2")
            .add(ok ? "yes" : "no");
        if (ok && (!best || pt.timing.area < best->timing.area))
            best = &pt;
    }
    table.render(std::cout);

    if (best) {
        std::printf("\nsmallest design meeting the deadline: %s "
                    "(area %s, %.1fx headroom)\n",
                    best->config.describe().c_str(),
                    (formatNumber(best->timing.area * 1e6, 3) + " mm^2").c_str(),
                    best->performance / required_ips);
    } else {
        std::printf("\nno organic configuration meets %.2f samples/s;"
                    " relax the deadline or batch samples\n",
                    samples_per_second);
    }
    return 0;
} catch (const FatalError &) {
    return 1; // fatal() has already printed the reason
}
