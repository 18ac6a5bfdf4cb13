/**
 * @file
 * Core synthesis: maps a CoreConfig onto technology timing and area.
 *
 * For each pipeline region, the synthesizer builds the region's
 * combinational block (core/blocks.hpp), buffers high-fanout nets,
 * slices it into the configured number of stages with the
 * delay-balanced pipeliner, and runs STA under the target library.
 * The core's clock period is the worst region period; its area is the
 * sum of region areas plus the DFF-array cost of the core's storage
 * structures and the complex ALU (pipelined just deep enough to meet
 * the core clock, as a stallable DesignWare unit would be).
 *
 * One synthesizer is shared by every task of a sweep: synthesize() is
 * safe to call concurrently. Pipelining + STA of a block, the costly
 * part, runs once per synthesizer for each distinct (content digest
 * of the unbuffered block, stage count) key; the first caller
 * computes it and concurrent callers of the same key wait for that
 * result. The key is the block's content rather than a list of the
 * CoreConfig fields its generator reads, so a generator that starts
 * reading another field can never be served a stale timing. Only the
 * timing triples and the complex-ALU netlist are kept; the loop-floor
 * netlists are rebuilt per call.
 *
 * Deepening reproduces the paper's methodology: "we synthesize the
 * baseline design and cut the stage which is on the critical path"
 * (Sec. 5.1) — deepen() adds one stage to whichever region currently
 * limits the clock under the *target library*, so organic and silicon
 * cores with the same stage count are cut in different places, as the
 * paper observes in Sec. 5.5.
 */

#ifndef OTFT_CORE_SYNTHESIZER_HPP
#define OTFT_CORE_SYNTHESIZER_HPP

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "liberty/library.hpp"
#include "sta/pipeline.hpp"
#include "sta/sta.hpp"

namespace otft::stats {
class Counter;
}

namespace otft::core {

/** Timing/area of one synthesized region. */
struct RegionTiming
{
    arch::Region region = arch::Region::Fetch;
    int stages = 1;
    double clockPeriod = 0.0;
    double area = 0.0;
    std::size_t cells = 0;
};

/** Timing/area of a synthesized core. */
struct CoreTiming
{
    /** Minimum core clock period, seconds. */
    double clockPeriod = 0.0;
    /** Maximum frequency, hertz. */
    double frequency = 0.0;
    /** Total area (regions + storage + complex ALU), m^2. */
    double area = 0.0;
    /** The region limiting the clock. */
    arch::Region critical = arch::Region::Fetch;
    /** Stages chosen for the complex ALU to meet the core clock. */
    int complexAluStages = 1;
    /** Per-region detail. */
    std::vector<RegionTiming> regions;
};

/**
 * Synthesizes cores against one library. synthesize() and deepen()
 * may run concurrently on one instance; it is neither copyable nor
 * movable.
 */
class CoreSynthesizer
{
  public:
    CoreSynthesizer(const liberty::CellLibrary &library,
                    sta::StaConfig sta_config = {});

    /** Synthesize a configuration. */
    CoreTiming synthesize(const arch::CoreConfig &config);

    /**
     * One step of "cut the critical stage": returns the configuration
     * with one more stage in the region that limits the clock.
     */
    arch::CoreConfig deepen(const arch::CoreConfig &config);

    const liberty::CellLibrary &lib() const { return library; }
    const sta::StaConfig &staConfig() const { return staConfig_; }

    /**
     * Broadcast-span coefficient for the single-cycle loop floors:
     * loop nets route an extra loopSpanCoefficient * sqrt(core area).
     * Set it before sharing the synthesizer across threads.
     */
    double loopSpanCoefficient = 0.09;

  private:
    /** Period, area and cell count of one pipelined block. */
    struct BlockTiming
    {
        double clockPeriod = 0.0;
        double area = 0.0;
        std::size_t cells = 0;
    };

    /** (content digest of the unpipelined block, stage count). */
    using MemoKey = std::pair<std::uint64_t, int>;

    /** Pipeline `comb` into `stages` stages and run STA on it. */
    BlockTiming timeBlock(const netlist::Netlist &comb, int stages) const;

    /**
     * The memo's one entry point: returns the value for `key`,
     * running `compute` only if no caller has claimed the key yet.
     * Concurrent callers of a claimed key wait for its value. If
     * `compute` throws, every caller of the key, then and later,
     * gets that exception.
     */
    template <typename Compute>
    BlockTiming memoized(const MemoKey &key, stats::Counter &hits,
                         stats::Counter &misses, Compute &&compute);

    /** The bufferized complex ALU, built on first use. */
    const netlist::Netlist &complexAlu();

    const liberty::CellLibrary &library;
    sta::StaConfig staConfig_;
    sta::StaEngine engine;
    sta::Pipeliner pipeliner;

    std::mutex memoMutex;
    std::map<MemoKey, std::shared_future<BlockTiming>> memo;

    std::once_flag aluOnce;
    netlist::Netlist alu;
    std::uint64_t aluDigest = 0;
};

} // namespace otft::core

#endif // OTFT_CORE_SYNTHESIZER_HPP
