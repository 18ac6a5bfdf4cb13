/**
 * @file
 * Trace-driven cycle-level out-of-order superscalar core model — the
 * framework's AnyCore-equivalent IPC simulator.
 *
 * Models: a fetch group of up to fetchWidth instructions per cycle
 * (one taken branch per group), gshare direction prediction trained
 * at fetch, a front-end delay pipe of frontEndDepth() stages, ROB/IQ/
 * LSQ occupancy limits, oldest-first issue to typed execution pipes
 * (ALU / memory / branch; multiply pipelined, divide blocking), full
 * bypass with a wakeup penalty when the issue loop is deepened, a
 * two-level data cache, and misprediction recovery timed by the
 * branch resolution depth plus front-end refill.
 *
 * The model is event-driven: a cycle touches only the entries that
 * commit, complete, issue or dispatch in it. The ROB is a ring
 * indexed by serial, a min-heap yields the completions due, each
 * producer wakes its consumers through intrusive lists, and a
 * per-slot ready bitmap walked from the ROB head gives issue its
 * candidates oldest first (DESIGN.md, "Core model (event-driven)").
 *
 * Trace-driven simplification: wrong-path instructions are not
 * fetched; the misprediction cost is modeled as fetch-stall until
 * resolution plus the refill latency of the correct-path fetch group,
 * which is the same first-order penalty the paper's simulator charges.
 * IPC depends only on the core configuration — not on the technology
 * library — exactly as in the paper, where one AnyCore simulation
 * serves both processes.
 */

#ifndef OTFT_ARCH_CORE_HPP
#define OTFT_ARCH_CORE_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "arch/memory.hpp"
#include "arch/predictor.hpp"
#include "workload/trace.hpp"

namespace otft::arch {

/** Simulation statistics. */
struct SimStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts) /
                              static_cast<double>(branches)
                        : 0.0;
    }
};

/** The core model. */
class CoreModel
{
  public:
    CoreModel(CoreConfig config, workload::TraceGenerator &trace);

    /**
     * Simulate until `instruction_count` instructions commit after a
     * warmup period (predictor and caches train during warmup;
     * statistics cover only the measured phase).
     */
    SimStats run(std::uint64_t instruction_count,
                 std::uint64_t warmup_instructions = 10000);

    const CoreConfig &config() const { return cfg; }

  private:
    enum class State : std::uint8_t { Waiting, Issued, Done };

    /**
     * Consumer-list links are intrusive: link id slot * 2 + k names
     * source operand k of the entry in `slot`, so the lists need no
     * storage beyond the ring itself.
     */
    static constexpr std::uint32_t noLink = 0xffffffffu;

    /**
     * One ROB slot. The ROB is a ring of `robSize` slots; the entry
     * with serial s lives in slot s % robSize.
     */
    struct RobEntry
    {
        workload::OpClass op = workload::OpClass::IntAlu;
        State state = State::Waiting;
        bool mispredicted = false;
        /** Source operands whose producer has not completed yet. */
        std::uint8_t pending = 0;
        /** Head of this producer's consumer list (a link id). */
        std::uint32_t firstConsumer = noLink;
        /** Next link after operand k's link in its producer's list. */
        std::uint32_t nextConsumer[2] = {noLink, noLink};
        std::uint64_t serial = 0;
        std::uint64_t earliestIssue = 0;
        std::uint64_t doneCycle = 0;
        std::uint64_t address = 0;
    };

    struct FetchedInst
    {
        workload::TraceInst inst;
        bool mispredicted = false;
        std::uint64_t readyCycle = 0;
    };

    /** (doneCycle, serial) of an issued entry, for the min-heap. */
    using Completion = std::pair<std::uint64_t, std::uint64_t>;

    std::size_t slotOf(std::uint64_t serial) const
    {
        return static_cast<std::size_t>(serial % rob.size());
    }
    RobEntry &entryAt(std::uint64_t serial) { return rob[slotOf(serial)]; }

    /** First ready slot in [from, end), or end. */
    std::size_t nextReady(std::size_t from, std::size_t end) const;
    void setReady(std::size_t slot, bool ready);

    /** Issue the ready entries in slots [from, end), oldest first;
     *  @return false once no further entry can issue this cycle. */
    bool issueRange(std::size_t from, std::size_t end, int &alu_free,
                    int &mem_free, int &branch_free);

    void doCommit();
    void doComplete();
    void doIssue();
    void doDispatch();
    void doFetch();

    CoreConfig cfg;
    workload::TraceGenerator &trace;
    GsharePredictor predictor;
    MemoryModel memory;
    SimStats stats;

    std::uint64_t cycle = 0;
    /** Serial the next dispatched entry gets. */
    std::uint64_t nextSerial = 1;
    /** Serial of the ROB head entry (oldest in flight). In-flight
     *  serials are exactly [headSerial, nextSerial). */
    std::uint64_t headSerial = 1;
    /** The ROB ring, robSize slots. */
    std::vector<RobEntry> rob;
    /** Issued entries by completion cycle, oldest serial first. */
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions;
    /** One bit per ROB slot: Waiting with every operand complete. */
    std::vector<std::uint64_t> readyBits;
    /** Waiting (dispatched, not yet issued) entries: IQ occupancy. */
    int waiting = 0;
    std::deque<FetchedInst> fetchQueue;
    /** Fetch stalls until this cycle after a misprediction. */
    std::uint64_t fetchResumeCycle = 0;
    /** Fetch is blocked behind an unresolved mispredicted branch. */
    bool fetchBlocked = false;
    /** Newest producer serial per architectural register (a serial
     *  below headSerial has committed: the value is architectural). */
    std::vector<std::uint64_t> renameMap =
        std::vector<std::uint64_t>(workload::numArchRegs, 0);
    /** Per-ALU-pipe busy horizon (divide blocks its pipe). */
    std::vector<std::uint64_t> aluBusyUntil;
    /** In-flight memory operations (LSQ occupancy). */
    int memInFlight = 0;
};

} // namespace otft::arch

#endif // OTFT_ARCH_CORE_HPP
