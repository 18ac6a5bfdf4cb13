#include "core/synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/blocks.hpp"
#include "netlist/bufferize.hpp"
#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::core {

using arch::CoreConfig;
using arch::Region;

CoreSynthesizer::CoreSynthesizer(const liberty::CellLibrary &library,
                                 sta::StaConfig sta_config)
    : library(library), staConfig_(sta_config),
      engine(library, sta_config), pipeliner(library, sta_config)
{
}

CoreSynthesizer::BlockTiming
CoreSynthesizer::timeBlock(const netlist::Netlist &comb, int stages) const
{
    const auto report = pipeliner.pipeline(comb, stages);
    const auto sta = engine.analyze(report.netlist);
    return {sta.minClockPeriod, sta.area, sta.cellCount};
}

template <typename Compute>
CoreSynthesizer::BlockTiming
CoreSynthesizer::memoized(const MemoKey &key, stats::Counter &hits,
                          stats::Counter &misses, Compute &&compute)
{
    std::optional<std::promise<BlockTiming>> claim;
    std::shared_future<BlockTiming> value;
    {
        std::lock_guard<std::mutex> lock(memoMutex);
        auto [it, inserted] = memo.try_emplace(key);
        if (inserted)
            it->second = claim.emplace().get_future().share();
        value = it->second;
    }
    if (!claim) {
        ++hits;
        return value.get();
    }
    // Computed outside the lock. Nested parallel regions run inline,
    // so this never waits on a task that could be waiting on `value`.
    ++misses;
    try {
        claim->set_value(compute());
    } catch (...) {
        claim->set_exception(std::current_exception());
    }
    return value.get();
}

const netlist::Netlist &
CoreSynthesizer::complexAlu()
{
    std::call_once(aluOnce, [this] {
        const netlist::Netlist raw = buildComplexAlu();
        aluDigest = raw.contentDigest();
        alu = netlist::bufferize(raw, 6);
    });
    return alu;
}

CoreTiming
CoreSynthesizer::synthesize(const CoreConfig &config)
{
    static stats::Counter &stat_calls = stats::counter(
        "synth.cores.synthesized", "core configurations synthesized");
    static stats::Counter &stat_hits = stats::counter(
        "synth.region_cache.hits",
        "region timings served from the memo");
    static stats::Counter &stat_misses = stats::counter(
        "synth.region_cache.misses",
        "region timings computed (pipeline + STA)");
    static stats::Counter &stat_alu_hits = stats::counter(
        "synth.alu_cache.hits",
        "complex-ALU timings served from the memo");
    static stats::Counter &stat_alu_misses = stats::counter(
        "synth.alu_cache.misses",
        "complex-ALU timings computed (pipeline + STA)");
    OTFT_TRACE_SCOPE("synth.core.synthesize");
    ++stat_calls;

    CoreTiming timing;

    static constexpr Region all_regions[] = {
        Region::Fetch,   Region::Decode, Region::Rename,
        Region::Dispatch, Region::Issue, Region::RegRead,
        Region::Execute, Region::Retire,
    };

    for (Region region : all_regions) {
        const int stages = config.stagesIn(region);
        const netlist::Netlist comb = buildRegionBlock(region, config);
        const BlockTiming bt = memoized(
            {comb.contentDigest(), stages}, stat_hits, stat_misses, [&] {
                OTFT_TRACE_SCOPE("synth.region.time");
                return timeBlock(netlist::bufferize(comb, 6), stages);
            });

        RegionTiming rt;
        rt.region = region;
        rt.stages = stages;
        rt.clockPeriod = bt.clockPeriod;
        rt.area = bt.area;
        rt.cells = bt.cells;
        timing.regions.push_back(rt);
        timing.area += rt.area;
    }

    // Single-cycle loop floors (Palacharla/Jouppi): the wakeup-select
    // and bypass loops must close combinationally regardless of how
    // deep the issue/execute regions are cut. Their broadcast nets
    // span the core, so the floor carries a block-span wire term that
    // is significant in silicon and negligible in organic — the
    // paper's "communication between the pipelines" effect (Sec. 5.5).
    {
        const double span =
            loopSpanCoefficient * std::sqrt(timing.area);

        sta::StaConfig loop_cfg = staConfig_;
        loop_cfg.registerInputs = false;
        loop_cfg.registerOutputs = false;

        loop_cfg.extraSpanPerNet = span;
        const double wakeup_floor =
            sta::StaEngine(library, loop_cfg)
                .analyze(netlist::bufferize(buildWakeupLoop(config), 6))
                .minClockPeriod;

        loop_cfg.extraSpanPerNet =
            span * static_cast<double>(config.backendWidth()) / 3.0;
        const double bypass_floor =
            sta::StaEngine(library, loop_cfg)
                .analyze(netlist::bufferize(buildBypassLoop(config), 6))
                .minClockPeriod;

        for (RegionTiming &rt : timing.regions) {
            if (rt.region == Region::Issue)
                rt.clockPeriod = std::max(rt.clockPeriod, wakeup_floor);
            if (rt.region == Region::Execute)
                rt.clockPeriod = std::max(rt.clockPeriod, bypass_floor);
        }
    }

    for (const RegionTiming &rt : timing.regions) {
        if (rt.clockPeriod > timing.clockPeriod) {
            timing.clockPeriod = rt.clockPeriod;
            timing.critical = rt.region;
        }
    }

    // Storage structures as DFF arrays.
    const liberty::StdCell &dff = library.cell("dff");
    timing.area +=
        static_cast<double>(storageBits(config)) * dff.area;

    // Complex ALU: pipeline just deep enough to meet the core clock
    // (stallable DesignWare-style unit; it never sets the clock).
    {
        const netlist::Netlist &alu_comb = complexAlu();
        auto alu_at = [&](int stages) {
            return memoized({aluDigest, stages}, stat_alu_hits,
                            stat_alu_misses,
                            [&] { return timeBlock(alu_comb, stages); });
        };

        // Start from a period-ratio estimate and grow until the unit
        // meets the core clock.
        const double comb_period = alu_at(1).clockPeriod;
        int stages = std::max(
            1, static_cast<int>(comb_period / timing.clockPeriod));
        BlockTiming result = alu_at(stages);
        while (result.clockPeriod > timing.clockPeriod && stages < 48)
            result = alu_at(++stages);
        timing.complexAluStages = stages;
        timing.area += result.area;
    }

    timing.frequency =
        timing.clockPeriod > 0.0 ? 1.0 / timing.clockPeriod : 0.0;
    return timing;
}

CoreConfig
CoreSynthesizer::deepen(const CoreConfig &config)
{
    const CoreTiming timing = synthesize(config);
    CoreConfig deeper = config;
    ++deeper.stagesIn(timing.critical);
    return deeper;
}

} // namespace otft::core
