#include "arch/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::arch {

using workload::OpClass;

namespace {

bool
isMemory(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

} // namespace

CoreModel::CoreModel(CoreConfig config, workload::TraceGenerator &trace)
    : cfg(config), trace(trace), predictor(config.predictorBits),
      memory(config.l1Latency, config.l2Latency, config.memLatency),
      aluBusyUntil(static_cast<std::size_t>(config.aluPipes), 0)
{
    if (cfg.fetchWidth < 1 || cfg.aluPipes < 1)
        fatal("CoreModel: invalid widths");
    if (cfg.robSize < 1)
        fatal("CoreModel: invalid ROB size");
    const auto rob_size = static_cast<std::size_t>(cfg.robSize);
    rob.resize(rob_size);
    readyBits.assign((rob_size + 63) / 64, 0);
    // At most robSize entries are ever issued and incomplete.
    std::vector<Completion> storage;
    storage.reserve(rob_size);
    completions = decltype(completions)(std::greater<Completion>(),
                                        std::move(storage));
}

std::size_t
CoreModel::nextReady(std::size_t from, std::size_t end) const
{
    while (from < end) {
        const std::uint64_t word = readyBits[from / 64] >> (from % 64);
        if (word != 0)
            return std::min(end, from + static_cast<std::size_t>(
                                            std::countr_zero(word)));
        from = (from / 64 + 1) * 64;
    }
    return end;
}

void
CoreModel::setReady(std::size_t slot, bool ready)
{
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    if (ready)
        readyBits[slot / 64] |= bit;
    else
        readyBits[slot / 64] &= ~bit;
}

void
CoreModel::doCommit()
{
    const int commit_width = std::max(cfg.fetchWidth,
                                      cfg.backendWidth());
    for (int k = 0; k < commit_width && headSerial < nextSerial; ++k) {
        const RobEntry &head = entryAt(headSerial);
        if (head.state != State::Done)
            break;
        if (isMemory(head.op))
            --memInFlight;
        ++stats.instructions;
        ++headSerial;
    }
}

void
CoreModel::doComplete()
{
    while (!completions.empty() && completions.top().first <= cycle) {
        const std::uint64_t serial = completions.top().second;
        completions.pop();
        RobEntry &entry = entryAt(serial);
        entry.state = State::Done;

        // Wake the consumers: the last pending operand makes one ready.
        for (std::uint32_t link = entry.firstConsumer; link != noLink;) {
            const std::size_t slot = link / 2;
            RobEntry &consumer = rob[slot];
            link = consumer.nextConsumer[link % 2];
            if (--consumer.pending == 0)
                setReady(slot, true);
        }

        if (entry.op == OpClass::Branch) {
            predictor.recordOutcome(entry.mispredicted);
            ++stats.branches;
            if (entry.mispredicted) {
                ++stats.mispredicts;
                // Fetch stopped at this branch, so nothing younger is
                // in flight or queued: there is nothing to squash.
                assert(serial + 1 == nextSerial && fetchQueue.empty());
                fetchResumeCycle = cycle + 1;
                fetchBlocked = false;
            }
        }
    }
}

bool
CoreModel::issueRange(std::size_t from, std::size_t end, int &alu_free,
                      int &mem_free, int &branch_free)
{
    const int wakeup = cfg.wakeupPenalty();
    for (std::size_t slot = nextReady(from, end); slot < end;
         slot = nextReady(slot + 1, end)) {
        if (alu_free + mem_free + branch_free == 0)
            return false;
        RobEntry &entry = rob[slot];
        // earliestIssue grows with age: no younger entry is due either.
        if (entry.earliestIssue > cycle)
            return false;

        switch (entry.op) {
          case OpClass::IntAlu:
            if (alu_free == 0)
                continue;
            --alu_free;
            entry.doneCycle = cycle +
                              static_cast<std::uint64_t>(
                                  cfg.aluLatency() + wakeup);
            break;
          case OpClass::IntMul:
            if (alu_free == 0)
                continue;
            --alu_free;
            entry.doneCycle =
                cycle + static_cast<std::uint64_t>(
                            cfg.mulLatency + cfg.aluLatency() - 1 +
                            wakeup);
            break;
          case OpClass::IntDiv: {
            if (alu_free == 0)
                continue;
            --alu_free;
            // Divide blocks its pipe until completion.
            const std::uint64_t done =
                cycle + static_cast<std::uint64_t>(
                            cfg.divLatency + cfg.aluLatency() - 1 +
                            wakeup);
            entry.doneCycle = done;
            for (std::uint64_t &busy : aluBusyUntil) {
                if (busy <= cycle) {
                    busy = done;
                    break;
                }
            }
            break;
          }
          case OpClass::Load: {
            if (mem_free == 0)
                continue;
            --mem_free;
            const std::uint64_t l1m = memory.l1().misses();
            const std::uint64_t l2m = memory.l2().misses();
            const int latency = memory.loadLatency(entry.address);
            stats.l1Misses += memory.l1().misses() - l1m;
            stats.l2Misses += memory.l2().misses() - l2m;
            ++stats.loads;
            entry.doneCycle = cycle +
                              static_cast<std::uint64_t>(
                                  latency + cfg.aluLatency() - 1 +
                                  wakeup);
            break;
          }
          case OpClass::Store:
            if (mem_free == 0)
                continue;
            --mem_free;
            memory.store(entry.address);
            ++stats.stores;
            entry.doneCycle = cycle + 1;
            break;
          case OpClass::Branch:
            if (branch_free == 0)
                continue;
            --branch_free;
            // Resolution at the end of the execute region.
            entry.doneCycle =
                cycle + static_cast<std::uint64_t>(
                            cfg.stagesIn(Region::RegRead) +
                            cfg.stagesIn(Region::Execute));
            break;
        }
        entry.state = State::Issued;
        setReady(slot, false);
        --waiting;
        completions.emplace(entry.doneCycle, entry.serial);
    }
    return true;
}

void
CoreModel::doIssue()
{
    // Dispatch never lets more than iqSize entries wait, so the whole
    // IQ is always inside the issue window.
    assert(waiting <= cfg.iqSize);

    int alu_free = 0;
    for (std::uint64_t busy : aluBusyUntil)
        if (busy <= cycle)
            ++alu_free;
    int mem_free = cfg.memPipes;
    int branch_free = cfg.branchPipes;

    // Oldest first: from the head slot to the ring's end, then the
    // wrapped-around younger slots.
    const std::size_t head = slotOf(headSerial);
    if (issueRange(head, rob.size(), alu_free, mem_free, branch_free))
        issueRange(0, head, alu_free, mem_free, branch_free);
}

void
CoreModel::doDispatch()
{
    for (int k = 0; k < cfg.fetchWidth; ++k) {
        if (fetchQueue.empty() ||
            fetchQueue.front().readyCycle > cycle)
            break;
        if (nextSerial - headSerial >= rob.size())
            break;
        if (waiting >= cfg.iqSize)
            break;
        const FetchedInst &fetched = fetchQueue.front();
        const workload::TraceInst &inst = fetched.inst;
        const bool is_mem = isMemory(inst.op);
        if (is_mem && memInFlight >= cfg.lsqSize)
            break;

        // The slot's previous occupant, serial - robSize, committed.
        const std::uint64_t serial = nextSerial++;
        const std::size_t slot = slotOf(serial);
        RobEntry &entry = rob[slot];
        entry = RobEntry{};
        entry.op = inst.op;
        entry.serial = serial;
        entry.earliestIssue =
            cycle + static_cast<std::uint64_t>(
                        cfg.stagesIn(Region::Issue));
        entry.address = inst.address;
        entry.mispredicted = fetched.mispredicted;

        // Rename: wait on the newest producer of each source register
        // that is still in flight and incomplete.
        const int sources[2] = {inst.src1, inst.src2};
        for (std::uint32_t src = 0; src < 2; ++src) {
            if (sources[src] == workload::noReg)
                continue;
            const std::uint64_t producer =
                renameMap[static_cast<std::size_t>(sources[src])];
            if (producer < headSerial)
                continue; // no producer, or producer committed
            RobEntry &prod = entryAt(producer);
            if (prod.state == State::Done)
                continue;
            entry.nextConsumer[src] = prod.firstConsumer;
            prod.firstConsumer =
                static_cast<std::uint32_t>(slot) * 2 + src;
            ++entry.pending;
        }
        if (inst.dest != workload::noReg)
            renameMap[static_cast<std::size_t>(inst.dest)] = serial;
        if (entry.pending == 0)
            setReady(slot, true);

        if (is_mem)
            ++memInFlight;
        ++waiting;
        fetchQueue.pop_front();
    }
}

void
CoreModel::doFetch()
{
    if (cycle < fetchResumeCycle || fetchBlocked)
        return;

    for (int k = 0; k < cfg.fetchWidth; ++k) {
        workload::TraceInst inst = trace.next();
        FetchedInst fetched;
        fetched.inst = inst;
        fetched.readyCycle =
            cycle + static_cast<std::uint64_t>(cfg.frontEndDepth());

        if (inst.op == OpClass::Branch) {
            const bool predicted = predictor.predict(inst.pc);
            predictor.update(inst.pc, inst.taken);
            fetched.mispredicted = predicted != inst.taken;
            fetchQueue.push_back(fetched);
            if (fetched.mispredicted) {
                // Trace-driven recovery: stop fetching until the
                // branch resolves (wrong-path work is not modeled).
                fetchBlocked = true;
                break;
            }
            if (inst.taken)
                break; // one taken branch per fetch group
        } else {
            fetchQueue.push_back(fetched);
        }
    }
}

SimStats
CoreModel::run(std::uint64_t instruction_count,
               std::uint64_t warmup_instructions)
{
    // Safety valve: no workload should need more than this many
    // cycles per instruction even at width 1.
    const std::uint64_t max_cycles =
        (warmup_instructions + instruction_count) * 400 + 100000;

    auto step = [&] {
        doCommit();
        doComplete();
        doIssue();
        doDispatch();
        doFetch();
        ++cycle;
    };

    // Warmup: train the predictor and caches, then discard counters
    // while keeping all microarchitectural state.
    stats = SimStats{};
    while (stats.instructions < warmup_instructions &&
           cycle < max_cycles)
        step();
    stats = SimStats{};

    const std::uint64_t measure_start = cycle;
    while (stats.instructions < instruction_count &&
           cycle < max_cycles)
        step();
    if (cycle >= max_cycles)
        warn("CoreModel: cycle limit reached (deadlock?)");
    stats.cycles = cycle - measure_start;

    // `stats` names the member here, so qualify the namespace fully.
    static otft::stats::Counter &stat_insts = otft::stats::counter(
        "arch.instructions.simulated",
        "instructions committed in the measured phase");
    static otft::stats::Counter &stat_cycles = otft::stats::counter(
        "arch.cycles.simulated", "cycles in the measured phase");
    stat_insts += stats.instructions;
    stat_cycles += stats.cycles;
    return stats;
}

} // namespace otft::arch
