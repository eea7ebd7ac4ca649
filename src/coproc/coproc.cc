#include "coproc/coproc.hh"

#include <algorithm>
#include <cassert>
#include <functional>
#include <ostream>
#include <stdexcept>

#include "ckpt/ckpt.hh"
#include "common/log.hh"
#include "fault/injector.hh"

namespace occamy
{

namespace
{

/** Trace a pipeline event for @p inst (dispatch/issue/retire). */
inline void
pipeEvent(obs::EventSink *sink, Cycle now, obs::EventKind kind,
          const DynInst &inst)
{
    obs::emit(sink, kind, now, inst.core,
              static_cast<std::uint64_t>(inst.op), inst.seq,
              inst.activeLanes);
}

} // namespace

CoProcessor::CoProcessor(const MachineConfig &cfg, MemSystem &mem)
    : cfg_(cfg), model_(policy::model(cfg.policy)), mem_(mem),
      rt_(cfg.numCores, cfg.numExeBUs),
      dispatch_cfg_(cfg.numExeBUs, cfg.numCores),
      regfile_cfg_(cfg.numExeBUs, cfg.numCores),
      regfile_(cfg),
      lane_mgr_(RooflineParams::fromConfig(cfg), cfg.numExeBUs,
                cfg.laneMgrLatency)
{
    // Let the policy adjust per-core structure sizing (FTS statically
    // splits the single full-width unit's load/store queues between
    // the cores -- the store-queue competition Section 2 blames for
    // FTS's issue-rate drop).
    MachineConfig core_cfg = cfg;
    model_.tuneCoreConfig(core_cfg);
    cores_.reserve(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c)
        cores_.emplace_back(core_cfg);
    busy_lanes_.assign(cfg.numCores, 0);
    fts_cursor_.assign(cfg.numCores, 0);
    wait_head_.assign(regfile_.physRegs(), -1);

    // Boot-time lane ownership.
    switch (model_.bootOwnership()) {
      case policy::BootOwnership::StaticPlan:
        // Static plan: equal split unless the config carries one.
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            applyVl(static_cast<CoreId>(c),
                    policy::bootShare(cfg_, static_cast<CoreId>(c)));
            rt_.core(static_cast<CoreId>(c)).status = true;
        }
        break;
      case policy::BootOwnership::FullWidthNoOwnership:
        // No ownership: every instruction executes full-width.
        for (unsigned c = 0; c < cfg_.numCores; ++c)
            rt_.retarget(static_cast<CoreId>(c), 0);
        break;
      case policy::BootOwnership::AllFree:
        // All lanes start free; workload prologues claim them.
        break;
    }
}

bool
CoProcessor::canEnqueue(CoreId c) const
{
    return cores_[c].pool.size() < cfg_.instPoolEntries;
}

void
CoProcessor::enqueue(DynInst inst)
{
    assert(isSve(inst.op));
    assert(canEnqueue(inst.core));
    cores_[inst.core].pool.push_back(inst);
}

bool
CoProcessor::canEnqueueEmSimd(CoreId c) const
{
    return cores_[c].emq.size() < kEmqDepth;
}

void
CoProcessor::enqueueEmSimd(DynInst inst)
{
    assert(isEmSimd(inst.op));
    assert(canEnqueueEmSimd(inst.core));
    if (inst.op == Opcode::MsrVL)
        cores_[inst.core].vlReq = VlRequestStatus{};
    cores_[inst.core].emq.push_back(inst);
}

VlRequestStatus
CoProcessor::vlRequestStatus(CoreId c) const
{
    return cores_[c].vlReq;
}

void
CoProcessor::ackVlRequest(CoreId c)
{
    cores_[c].vlReq = VlRequestStatus{};
}

void
CoProcessor::cancelVlRequest(CoreId c)
{
    CoreState &cs = cores_[c];
    cs.vlReq = VlRequestStatus{};
    cs.cfgDelayUntil = 0;
    // At most one <VL> request is in flight per core (the front end
    // stalls on it), so dropping the first un-executed MsrVL is enough.
    for (std::size_t i = 0; i < cs.emq.size(); ++i) {
        if (cs.emq[i].op == Opcode::MsrVL) {
            cs.emq.erase_at(i);
            break;
        }
    }
}

bool
CoProcessor::coreDrained(CoreId c) const
{
    const CoreState &cs = cores_[c];
    if (!model_.drainIncludesLsu())
        return cs.pool.empty() && cs.rob.empty();
    return cs.pool.empty() && cs.rob.empty() && cs.lsu.empty();
}

unsigned
CoProcessor::allocatedLanes(CoreId c) const
{
    if (model_.fullWidthExecution())
        return usableLanes();
    return rt_.core(c).vl * kLanesPerBu;
}

DynInst &
CoProcessor::robEntry(CoreState &cs, SeqNum seq)
{
    assert(seq >= cs.robBase);
    const std::size_t idx = static_cast<std::size_t>(seq - cs.robBase);
    assert(idx < cs.rob.size());
    return cs.rob[idx];
}

// Wakeup index. Replacing the per-cycle scan of every IQ entry with it
// keeps every artifact byte-identical because of three facts, each
// asserted where it is relied on:
//  1. A tryIssue rejection has no side effects, so skipping an entry
//     the scan would have rejected changes nothing.
//  2. While an entry waits, each source's readiness moves at most
//     once, from kCycleNever to a fixed cycle: a producer issues once,
//     sources are freed only after the entry commits, and
//     applyVl/resetCore run only on a core with an empty IQ. So a
//     ready time computed once stays true until the entry issues.
//  3. A wake only makes a *younger* entry ready (producers precede
//     their consumers), so an oldest-first walk that re-reads the
//     ready bits as it goes sees a same-cycle wake exactly where the
//     scan did.

void
CoProcessor::indexEntry(CoreId c, CoreState &cs, const DynInst &inst,
                        Cycle now)
{
    assert(!inst.issued);
    const IssueClass k = issueClass(inst);
    const std::size_t slot = cs.slotOf(inst.seq);
    Cycle at = 0;
    if (k != kLoad) {
        for (unsigned i = 0; i < inst.nsrc; ++i) {
            const std::int32_t p = inst.srcPhys[i];
            if (p < 0)
                continue;
            const Cycle r = regfile_.readyAt(p);
            if (r == kCycleNever) {
                // Only the entry's own core renames onto its rows, so
                // the producer (and the wake) is on this core.
                assert(regfile_.holder(p) == c &&
                       "waiter parked on another core's register");
                (void)c;
                cs.waitNext[slot] = wait_head_[p];
                wait_head_[p] = static_cast<std::int32_t>(slot);
                return;
            }
            at = std::max(at, r);
        }
    }
    if (at <= now) {
        cs.readyWord(slot, k) |= std::uint64_t{1} << (slot & 63);
    } else {
        auto &heap = cs.timed[k];
        heap.push_back({at, inst.seq});
        std::push_heap(heap.begin(), heap.end(),
                       std::greater<TimedEntry>());
    }
}

void
CoProcessor::wakeWaiters(CoreId c, CoreState &cs, std::int32_t phys,
                         SeqNum producer, Cycle now)
{
    std::int32_t slot = wait_head_[phys];
    wait_head_[phys] = -1;
    const std::size_t head = cs.slotOf(cs.robBase);
    while (slot >= 0) {
        const std::int32_t next = cs.waitNext[slot];
        const std::size_t off =
            (static_cast<std::size_t>(slot) - head) & cs.slotMask;
        const DynInst &w = robEntry(cs, cs.robBase + off);
        assert(w.seq > producer && "wake made an older entry ready");
        (void)producer;
        indexEntry(c, cs, w, now);
        slot = next;
    }
}

void
CoProcessor::drainTimed(CoreState &cs, Cycle now)
{
    for (unsigned k = 0; k < kNumIssueClasses; ++k) {
        auto &heap = cs.timed[k];
        while (!heap.empty() && heap.front().at <= now) {
            const SeqNum seq = heap.front().seq;
            std::pop_heap(heap.begin(), heap.end(),
                          std::greater<TimedEntry>());
            heap.pop_back();
            const std::size_t slot = cs.slotOf(seq);
            cs.readyWord(slot, static_cast<IssueClass>(k)) |=
                std::uint64_t{1} << (slot & 63);
        }
    }
}

unsigned
CoProcessor::openClasses(const CoreState &cs, unsigned compute_budget,
                         unsigned mem_budget)
{
    unsigned open = compute_budget > 0 ? 1u << kCompute : 0u;
    if (mem_budget > 0) {
        if (cs.lsu.canIssueLoad())
            open |= 1u << kLoad;
        if (cs.lsu.canIssueStore())
            open |= 1u << kStore;
    }
    return open;
}

std::size_t
CoProcessor::nextReady(const CoreState &cs, std::size_t from,
                       unsigned classes)
{
    // Slots run circularly from the ROB head; every set bit belongs to
    // an unissued ROB entry, so the first one met walking forward from
    // offset `from` is the answer unless the walk wrapped past the
    // head (its offset is then below `from`).
    if (classes == 0)
        return kNoEntry;
    const std::size_t words = cs.readyWords;
    const std::size_t head = cs.slotOf(cs.robBase);
    std::size_t slot = (head + from) & cs.slotMask;
    std::size_t w = slot >> 6;
    // All-ones for each requested class, so a word costs no branches.
    std::array<std::uint64_t, kNumIssueClasses> keep;
    for (unsigned k = 0; k < kNumIssueClasses; ++k)
        keep[k] = std::uint64_t{0} - ((classes >> k) & 1u);
    auto word = [&](std::size_t i) {
        const std::uint64_t *r = &cs.ready[i * kNumIssueClasses];
        return (r[kCompute] & keep[kCompute]) | (r[kLoad] & keep[kLoad]) |
               (r[kStore] & keep[kStore]);
    };
    std::uint64_t bits = word(w) & (~std::uint64_t{0} << (slot & 63));
    for (std::size_t i = 0; i <= words; ++i) {
        if (bits) {
            const std::size_t s =
                (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            const std::size_t off = (s - head) & cs.slotMask;
            return off >= from ? off : kNoEntry;
        }
        w = w + 1 == words ? 0 : w + 1;
        bits = word(w);
    }
    return kNoEntry;
}

bool
CoProcessor::anyReady(const CoreState &cs, IssueClass k)
{
    for (std::size_t w = 0; w < cs.readyWords; ++w)
        if (cs.ready[w * kNumIssueClasses + k])
            return true;
    return false;
}

void
CoProcessor::rebuildIssueIndex()
{
    std::fill(wait_head_.begin(), wait_head_.end(), -1);
    for (unsigned c = 0; c < cores_.size(); ++c) {
        CoreState &cs = cores_[c];
        std::fill(cs.ready.begin(), cs.ready.end(), 0);
        std::fill(cs.waitNext.begin(), cs.waitNext.end(), -1);
        for (auto &heap : cs.timed)
            heap.clear();
        // Cycle 0: an entry whose operands are ready at a known cycle
        // lands on its heap and moves to the ready set at the first
        // issue stage at or past that cycle, as it would have.
        for (const DynInst &d : cs.rob)
            if (!d.issued)
                indexEntry(static_cast<CoreId>(c), cs, d, 0);
    }
}

Lsu &
CoProcessor::lsuFor(CoreId c)
{
    return cores_[c].lsu;
}

std::size_t
CoProcessor::iqLoad(CoreId c) const
{
    // Issue queues stay per core even under FTS (each core keeps its
    // own dispatch window); sharing them starves the faster core
    // outright instead of merely slowing it.
    return cores_[c].iqCount;
}

void
CoProcessor::tick(Cycle now)
{
    applyFaults(now);

    std::fill(busy_lanes_.begin(), busy_lanes_.end(), 0u);
    for (auto &cs : cores_)
        cs.lsu.tick(now);

    commitStage(now);
    issueStage(now);
    renameStage(now);
    managerStage(now);
}

void
CoProcessor::applyFaults(Cycle now)
{
    if (!injector_)
        return;
    for (unsigned u : injector_->takeDueLaneFaults(now)) {
        if (dispatch_cfg_.owner(u) == kFaultedCore)
            continue;       // Already dead (duplicate plan entry).
        const CoreId owner = dispatch_cfg_.owner(u);
        // The two Cfg tables receive identical release/assign streams,
        // so per-unit ownership matches.
        assert(regfile_cfg_.owner(u) == owner);
        dispatch_cfg_.disable(u);
        regfile_cfg_.disable(u);
        if (owner == kNoCore)
            rt_.loseFree();
        else
            rt_.loseOwned(owner);
        ++lane_faults_;

        // Degrade the partitioning machinery: the LaneMgr plans over
        // the surviving pool from now on (the elastic policy schedules
        // an immediate re-plan); rule-based policies adjust their
        // entitlements through the onLaneFault hook.
        lane_mgr_.degrade(rt_.usableBus());
        if (model_.usesLaneManager())
            lane_mgr_.notifyPhaseEvent(now);
        model_.onLaneFault(cfg_, rt_, u, owner);

        OCCAMY_LOG(now, "Coproc",
                   "ExeBU %u hard fault (owner=%d, usable=%u)", u,
                   owner == kNoCore ? -1 : static_cast<int>(owner),
                   rt_.usableBus());
        obs::emit(sink_, obs::EventKind::FaultInject, now, owner,
                  static_cast<std::uint64_t>(fault::FaultKind::LaneFault),
                  u);
        obs::emit(sink_, obs::EventKind::PartitionDegrade, now, owner,
                  rt_.usableBus(), cfg_.numExeBUs);
    }
}

Cycle
CoProcessor::nextEventAt(Cycle now) const
{
    Cycle next = kCycleNever;
    // Candidates may be <= now (e.g. a ROB head that became ready
    // after this cycle's commit stage ran); clamp to now+1 — the
    // soonest a future tick can act on them.
    auto consider = [&next, now](Cycle c) {
        if (c != kCycleNever)
            next = std::min(next, std::max(c, now + 1));
    };

    // A pending lane-partition plan publishes at a fixed cycle and
    // changes <decision> state even with every pipeline drained.
    // (Rule-based policies update <decision> eagerly on EM-SIMD
    // execution, which the per-core candidates below already track.)
    if (model_.usesLaneManager())
        consider(lane_mgr_.planReadyAt());

    for (unsigned ci = 0; ci < cores_.size(); ++ci) {
        const CoreId c = static_cast<CoreId>(ci);
        const CoreState &cs = cores_[ci];

        // LSU queue releases gate both issue and coreDrained().
        consider(cs.lsu.nextRelease());

        // Rename acts on the pool head once it clears the transmit
        // retire gate; before that the stage is a strict no-op (the
        // gate check precedes the stall bookkeeping). At or past the
        // gate this clamps to now+1: a capacity-blocked rename bumps
        // stall counters and fires RenameStall every cycle, so such
        // cycles must be ticked, never skipped.
        if (!cs.pool.empty())
            consider(cs.pool.front().enqueueCycle + cfg_.retireDelay);

        // Next ROB head retirement.
        if (!cs.rob.empty() && cs.rob.front().issued)
            consider(cs.rob.front().readyCycle);

        // IQ entries: earliest cycle each class could issue one — now
        // + 1 with a ready entry, else its heap's soonest operand-ready
        // cycle, held back to the next queue release while the class's
        // LSU queue is full. Entries parked on an unissued producer
        // are governed by that producer's own entry. With vl == 0
        // (non-FTS) the issue stage skips this core entirely until a
        // reconfiguration — which is itself a wake event — grants
        // lanes again.
        if (cs.iqCount > 0 && model_.issueEligible(rt_, c)) {
            for (unsigned k = 0; k < kNumIssueClasses; ++k) {
                const IssueClass cls = static_cast<IssueClass>(k);
                Cycle earliest = anyReady(cs, cls) ? now + 1
                                 : cs.timed[k].empty()
                                     ? kCycleNever
                                     : cs.timed[k].front().at;
                if (earliest == kCycleNever)
                    continue;
                const bool full = cls == kLoad    ? !cs.lsu.canIssueLoad()
                                  : cls == kStore ? !cs.lsu.canIssueStore()
                                                  : false;
                if (full)
                    earliest = std::max(earliest, cs.lsu.nextRelease());
                consider(earliest);
            }
        }

        // EM-SIMD queue: a non-waiting head executes next cycle; a
        // drain-waiting MsrVL head is a no-op until the pipeline
        // empties, which the pool/ROB/LSU candidates above track. A
        // head stalled on an armed reconfiguration-delay deadline
        // resumes at that (known) cycle.
        if (!cs.emq.empty()) {
            if (!emHeadWaits(c, cs.emq.front(), now))
                consider(now + 1);
            else if (cs.cfgDelayUntil > now)
                consider(cs.cfgDelayUntil);
        }

        if (next == now + 1)
            break;
    }
    return next;
}

void
CoProcessor::skipCycles(Cycle span)
{
    if (model_.sharedIssueBudgets() && !cores_.empty())
        rr_start_ = static_cast<unsigned>((rr_start_ + span) %
                                          cores_.size());
}

void
CoProcessor::commitStage(Cycle now)
{
    for (unsigned c = 0; c < cores_.size(); ++c) {
        CoreState &cs = cores_[c];
        unsigned width = cfg_.commitWidth;
        while (width > 0 && !cs.rob.empty()) {
            DynInst &head = cs.rob.front();
            if (!head.issued || head.readyCycle > now)
                break;
            if (head.prevPhys >= 0)
                regfile_.free(static_cast<CoreId>(c), head.prevPhys);
            pipeEvent(sink_, now, obs::EventKind::Retire, head);
            cs.rob.pop_front();
            ++cs.robBase;
            --width;
        }
    }
}

bool
CoProcessor::tryIssue(CoreId c, SeqNum seq, Cycle now,
                      unsigned &compute_budget, unsigned &mem_budget)
{
    CoreState &cs = cores_[c];
    DynInst &inst = robEntry(cs, seq);
    assert(!inst.issued);

    // The walk offers only ready entries of open classes (fact 2 keeps
    // the ready bits true); check that the index agrees.
    auto operandsReady = [&](const DynInst &di) {
        for (unsigned i = 0; i < di.nsrc; ++i) {
            if (di.srcPhys[i] >= 0 &&
                regfile_.readyAt(di.srcPhys[i]) > now) {
                return false;
            }
        }
        return true;
    };
    const IssueClass k = issueClass(inst);
    assert(openClasses(cs, compute_budget, mem_budget) & (1u << k));
    assert(k == kLoad || operandsReady(inst));
    (void)operandsReady;

    // Gathers/scatters crack into address-generation micro-ops and
    // consume the core's full ld/st issue bandwidth for the cycle. The
    // one rejection left, and it precedes every side effect (fact 1).
    const bool strided = inst.isMem() && inst.stride != 1;
    if (strided && mem_budget < cfg_.memIssueWidth)
        return false;

    const std::size_t slot = cs.slotOf(seq);
    cs.readyWord(slot, k) &= ~(std::uint64_t{1} << (slot & 63));
    --cs.iqCount;
    inst.issued = true;

    if (k == kCompute) {
        --compute_budget;
        inst.readyCycle = now + computeLatency(inst.op, cfg_.fpLatency);
        busy_lanes_[c] += inst.activeLanes;
        ++cs.computeIssued;
        if (inst.phaseId >= cs.phaseCompute.size())
            cs.phaseCompute.resize(inst.phaseId + 1, 0);
        ++cs.phaseCompute[inst.phaseId];
    } else {
        Lsu &lsu = lsuFor(c);
        mem_budget -= strided ? cfg_.memIssueWidth : 1;
        if (k == kStore)
            inst.readyCycle =
                strided ? lsu.issueScatter(mem_, inst.addr, inst.elemBytes,
                                           inst.stride, inst.activeElems,
                                           now)
                        : lsu.issueStore(mem_, inst.addr, inst.bytes, now);
        else
            inst.readyCycle =
                strided ? lsu.issueGather(mem_, inst.addr, inst.elemBytes,
                                          inst.stride, inst.activeElems,
                                          now)
                        : lsu.issueLoad(mem_, inst.addr, inst.bytes, now);
        ++cs.memIssued;
    }
    // Stores write no register. A producer's readiness moves once
    // (fact 2); its waiters, all younger (fact 3), wake now, so a
    // 0-latency consumer still issues later in this same walk.
    if (k != kStore && inst.dstPhys >= 0) {
        assert(regfile_.readyAt(inst.dstPhys) == kCycleNever);
        regfile_.setReadyAt(inst.dstPhys, inst.readyCycle);
        wakeWaiters(c, cs, inst.dstPhys, seq, now);
    }
    pipeEvent(sink_, now, obs::EventKind::Issue, inst);
    return true;
}

void
CoProcessor::issueStage(Cycle now)
{
    for (CoreState &cs : cores_)
        drainTimed(cs, now);

    if (model_.sharedIssueBudgets()) {
        // One full-width unit: issue budgets shared by all cores,
        // arbitrated round-robin for fairness: each round, every core
        // in turn issues its oldest issueable entry past its cursor.
        unsigned compute_budget = cfg_.computeIssueWidth;
        unsigned mem_budget = cfg_.memIssueWidth;
        const unsigned n = static_cast<unsigned>(cores_.size());
        std::fill(fts_cursor_.begin(), fts_cursor_.end(), 0);
        bool progress = true;
        while (progress && (compute_budget > 0 || mem_budget > 0)) {
            progress = false;
            for (unsigned i = 0; i < n; ++i) {
                const CoreId c =
                    static_cast<CoreId>((rr_start_ + i) % n);
                CoreState &cs = cores_[c];
                std::size_t &cursor = fts_cursor_[c];
                for (;;) {
                    const std::size_t off = nextReady(
                        cs, cursor,
                        openClasses(cs, compute_budget, mem_budget));
                    if (off == kNoEntry)
                        break;
                    cursor = off + 1;
                    if (tryIssue(c, cs.robBase + off, now, compute_budget,
                                 mem_budget)) {
                        progress = true;
                        break;
                    }
                }
            }
        }
        rr_start_ = (rr_start_ + 1) % n;
    } else {
        for (unsigned c = 0; c < cores_.size(); ++c) {
            CoreState &cs = cores_[c];
            if (cs.iqCount == 0 ||
                !model_.issueEligible(rt_, static_cast<CoreId>(c)))
                continue;
            unsigned compute_budget = cfg_.computeIssueWidth;
            unsigned mem_budget = cfg_.memIssueWidth;
            std::size_t from = 0;
            for (;;) {
                const std::size_t off = nextReady(
                    cs, from, openClasses(cs, compute_budget, mem_budget));
                if (off == kNoEntry)
                    break;
                tryIssue(static_cast<CoreId>(c), cs.robBase + off, now,
                         compute_budget, mem_budget);
                from = off + 1;
            }
        }
    }
}

void
CoProcessor::renameStage(Cycle now)
{
    // Rotate the per-cycle rename order so scarce shared physical
    // registers (FTS) are allocated fairly across cores.
    for (unsigned i = 0; i < cores_.size(); ++i) {
        const CoreId c =
            static_cast<CoreId>((now + i) % cores_.size());
        CoreState &cs = cores_[c];
        unsigned width = cfg_.transmitWidth;
        bool reg_stall = false;
        bool other_stall = false;
        while (width > 0 && !cs.pool.empty()) {
            DynInst &inst = cs.pool.front();
            if (inst.enqueueCycle + cfg_.retireDelay > now)
                break;
            if (cs.rob.size() >= cfg_.robEntries ||
                iqLoad(c) >= cfg_.issueQueueEntries) {
                other_stall = true;
                break;
            }
            // Rename sources.
            for (unsigned i = 0; i < inst.nsrc; ++i)
                inst.srcPhys[i] =
                    inst.srcArch[i] >= 0
                        ? regfile_.mapping(c, inst.srcArch[i])
                        : -1;
            // Allocate the destination row.
            if (inst.dstArch >= 0) {
                const std::int32_t phys = regfile_.alloc(c);
                if (phys < 0) {
                    reg_stall = true;
                    break;
                }
                assert(wait_head_[phys] < 0 &&
                       "register freed with entries still parked on it");
                inst.dstPhys = phys;
                regfile_.setReadyAt(phys, kCycleNever);
                inst.prevPhys = regfile_.rename(c, inst.dstArch, phys);
            }
            const SeqNum seq = cs.robBase + cs.rob.size();
            inst.seq = seq;
            cs.rob.push_back(inst);
            ++cs.iqCount;
            indexEntry(c, cs, cs.rob.back(), now);
            pipeEvent(sink_, now, obs::EventKind::Dispatch, cs.rob.back());
            cs.pool.pop_front();
            --width;
        }
        if (reg_stall)
            ++cs.regStallCycles;
        else if (other_stall)
            ++cs.otherStallCycles;
        if (reg_stall || other_stall)
            obs::emit(sink_, obs::EventKind::RenameStall, now, c,
                      reg_stall ? 1 : 0);
    }
}

void
CoProcessor::applyVl(CoreId c, unsigned target, Cycle now)
{
    // resetCore below drops the core's register readiness; the wakeup
    // index relies on no unissued entry reading it (fact 2).
    assert(cores_[c].iqCount == 0 &&
           "vector-length change with unissued IQ entries");
    dispatch_cfg_.release(c);
    regfile_cfg_.release(c);
    if (target > 0) {
        const bool ok_d = dispatch_cfg_.assign(c, target);
        const bool ok_r = regfile_cfg_.assign(c, target);
        assert(ok_d && ok_r);
        (void)ok_d;
        (void)ok_r;
    }
    regfile_.resetCore(c);
    rt_.retarget(c, target);
    assert(rt_.al() == dispatch_cfg_.countFree());
    ++vl_switches_;
    // Ownership changed: rule-based policies refresh <decision> here,
    // eagerly, so skipped (fast-forwarded) cycles never miss one.
    model_.updateDecisions(cfg_, rt_);
    obs::emit(sink_, obs::EventKind::VlApply, now, c, target, rt_.al());
}

bool
CoProcessor::execEmSimd(CoreId c, const DynInst &inst, Cycle now)
{
    CoreState &cs = cores_[c];
    switch (inst.op) {
      case Opcode::MsrOI:
        rt_.core(c).oi = inst.oi;
        obs::emit(sink_, obs::EventKind::OiUpdate, now, c,
                  static_cast<std::uint64_t>(inst.oi.level), 0,
                  inst.oi.issue, inst.oi.mem);
        if (model_.usesLaneManager())
            lane_mgr_.notifyPhaseEvent(now);
        // Phase activity changed: rule-based policies republish
        // <decision> eagerly (no-op for the LaneMgr-driven policy).
        model_.updateDecisions(cfg_, rt_);
        return true;

      case Opcode::MsrVL: {
        const unsigned target = vlTarget(c, inst);

        // Injected transient denial: the Manager answers busy
        // (<status> = false) regardless of what the policy would say.
        // Releases (target 0) are exempt so epilogues always complete.
        if (injector_ && target != 0 && injector_->vlDenied(c, now)) {
            cs.cfgDelayUntil = 0;
            rt_.core(c).status = false;
            cs.vlReq = VlRequestStatus{true, false};
            return true;
        }

        const policy::VlOutcome out =
            model_.resolveVl(cfg_, rt_, c, target, coreDrained(c));

        if (out.action == policy::VlOutcome::Action::Wait) {
            // Wait at the head of the EM-SIMD queue until the SIMD
            // pipeline of this core is drained (Section 4.2.2
            // condition (2)).
            return false;
        }

        if (out.action == policy::VlOutcome::Action::Reject) {
            cs.cfgDelayUntil = 0;
            rt_.core(c).status = false;
            cs.vlReq = VlRequestStatus{true, false};
            return true;
        }

        if (model_.fullWidthExecution()) {
            // No ownership tables to update: <VL> is written directly.
            rt_.core(c).vl = out.vl;
            rt_.core(c).status = true;
        } else if (out.vl == rt_.core(c).vl) {
            cs.cfgDelayUntil = 0;
            rt_.core(c).status = true;
        } else {
            // A granted resize rewrites Dispatch.Cfg/RegFile.Cfg; an
            // injected reconfiguration delay stalls that rewrite at the
            // queue head. Once armed the deadline sticks even if the
            // fault window closes meanwhile.
            if (injector_) {
                if (cs.cfgDelayUntil == 0) {
                    const Cycle d = injector_->reconfigExtraDelay(c, now);
                    if (d > 0) {
                        cs.cfgDelayUntil = now + d;
                        return false;
                    }
                } else if (now < cs.cfgDelayUntil) {
                    return false;
                } else {
                    cs.cfgDelayUntil = 0;
                }
            }
            applyVl(c, out.vl, now);
            OCCAMY_LOG(now, "Coproc", "core%u vl -> %u (al=%u)", c,
                       out.vl, rt_.al());
        }
        cs.vlReq = VlRequestStatus{true, true};
        return true;
      }

      case Opcode::MrsVL:
      case Opcode::MrsStatus:
      case Opcode::MrsDecision:
      case Opcode::MrsAL:
        // Reads complete immediately; the front-end already consumed the
        // architectural value (speculative transmission, Section 4.1.1).
        return true;

      default:
        assert(false && "non-EM-SIMD instruction in EM-SIMD queue");
        return true;
    }
}

bool
CoProcessor::emHeadWaits(CoreId c, const DynInst &inst, Cycle now) const
{
    // Mirrors execEmSimd: only a MsrVL the policy resolves to Wait (a
    // real, grantable resize of an undrained pipeline) or one stalled
    // by an armed injected reconfiguration delay waits. Every other
    // head retires when executed.
    if (inst.op != Opcode::MsrVL)
        return false;
    const unsigned target = vlTarget(c, inst);
    if (injector_ && target != 0 && injector_->vlDenied(c, now))
        return false;       // Denied: retires as a reject.
    const policy::VlOutcome out =
        model_.resolveVl(cfg_, rt_, c, target, coreDrained(c));
    if (out.action == policy::VlOutcome::Action::Wait)
        return true;
    if (out.action == policy::VlOutcome::Action::Grant &&
        !model_.fullWidthExecution() && out.vl != rt_.core(c).vl) {
        // Grant-with-change: waiting only while an already-armed delay
        // deadline lies ahead. An unarmed but active delay window means
        // the next execution *arms* it — a state change, so not a wait.
        const Cycle du = cores_[c].cfgDelayUntil;
        if (du > now)
            return true;
    }
    return false;
}

unsigned
CoProcessor::vlTarget(CoreId c, const DynInst &inst) const
{
    if (inst.vlFromDecision) {
        const unsigned d = rt_.core(c).decision;
        return d > 0 ? d : rt_.core(c).vl;
    }
    return inst.imm;
}

void
CoProcessor::managerStage(Cycle now)
{
    // Publish a due lane-partition plan into <decision> (Section 5).
    if (model_.usesLaneManager() && lane_mgr_.planDue(now)) {
        const auto plan = lane_mgr_.makePlan(rt_.allOIs(), now);
        for (unsigned c = 0; c < cores_.size(); ++c)
            rt_.core(static_cast<CoreId>(c)).decision = plan[c];
        ++plans_published_;
        OCCAMY_LOG(now, "LaneMgr", "plan: c0=%u c1=%u", plan[0],
                   plan.size() > 1 ? plan[1] : 0);
    }

    // The EM-SIMD data path decodes 2 instructions per cycle (Fig. 5),
    // in order per core.
    unsigned budget = 2;
    const unsigned n = static_cast<unsigned>(cores_.size());
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        const CoreId c = static_cast<CoreId>((now + i) % n);
        CoreState &cs = cores_[c];
        while (budget > 0 && !cs.emq.empty()) {
            if (!execEmSimd(c, cs.emq.front(), now))
                break;      // Head is waiting (e.g. for drain).
            // Count executed instructions, not drain-wait retries of
            // the queue head: a waiting head must be an exact no-op so
            // the fast-forward engine can skip drain cycles.
            ++em_insts_;
            cs.emq.pop_front();
            --budget;
        }
    }
}

std::uint64_t
CoProcessor::computeIssued(CoreId c) const
{
    return cores_[c].computeIssued;
}

std::uint64_t
CoProcessor::memIssued(CoreId c) const
{
    return cores_[c].memIssued;
}

std::uint64_t
CoProcessor::computeIssuedInPhase(CoreId c, unsigned phase) const
{
    const auto &v = cores_[c].phaseCompute;
    return phase < v.size() ? v[phase] : 0;
}

std::uint64_t
CoProcessor::renameRegStallCycles(CoreId c) const
{
    return cores_[c].regStallCycles;
}

std::uint64_t
CoProcessor::renameOtherStallCycles(CoreId c) const
{
    return cores_[c].otherStallCycles;
}

void
CoProcessor::regStats(stats::Group &group) const
{
    group.addCounter("vl_switches", &vl_switches_,
                     "successful vector-length reconfigurations");
    group.addCounter("em_insts", &em_insts_,
                     "EM-SIMD instructions executed");
    group.addCounter("plans_published", &plans_published_,
                     "lane-partition plans published");
    group.addCounter("lane_faults", &lane_faults_,
                     "ExeBU hard faults applied");
    for (unsigned c = 0; c < cores_.size(); ++c) {
        const std::string p = "core" + std::to_string(c) + ".";
        group.addFormula(p + "compute_issued",
                         [this, c] {
                             return static_cast<double>(
                                 cores_[c].computeIssued);
                         },
                         "SIMD compute instructions issued");
        group.addFormula(p + "mem_issued",
                         [this, c] {
                             return static_cast<double>(
                                 cores_[c].memIssued);
                         },
                         "SIMD ld/st instructions issued");
        group.addFormula(p + "rename_reg_stall_cycles",
                         [this, c] {
                             return static_cast<double>(
                                 cores_[c].regStallCycles);
                         },
                         "cycles renaming blocked on free registers");
    }
}

namespace
{

/** Checkpoint field list of one in-flight instruction of a
 *  co-processor with @p cores cores and @p phys physical registers. */
template <class Inst, class Ar>
void
ioInst(Inst &d, Ar &ar, unsigned cores, std::size_t phys)
{
    constexpr std::uint64_t kNone = ~std::uint64_t{0};   // Register -1.
    const char *const bad_reg = "corrupt checkpoint (physical register)";
    ar.u16(d.op, occamy::kNumOpcodes, "corrupt checkpoint (bad opcode)");
    ar.u16(d.core, cores, "corrupt checkpoint (instruction core id)");
    ar.u64(d.seq);
    ar.u16(d.phaseId);
    ar.i64(d.dstArch);
    for (auto &a : d.srcArch)
        ar.i64(a);
    ar.u8(d.nsrc, d.srcArch.size() + 1,
          "corrupt checkpoint (instruction source count)");
    ar.u16(d.vlBus);
    ar.u16(d.activeLanes);
    ar.u16(d.activeElems);
    ar.u64(d.addr);
    ar.u32(d.bytes);
    ar.i64(d.stride);
    ar.u8(d.elemBytes);
    occamy::ioPhaseOI(d.oi, ar);
    ar.u32(d.imm);
    ar.b(d.vlFromDecision);
    ar.i64(d.dstPhys, phys, bad_reg, kNone);
    ar.i64(d.prevPhys, phys, bad_reg, kNone);
    for (auto &p : d.srcPhys)
        ar.i64(p, phys, bad_reg, kNone);
    ar.u64(d.enqueueCycle);
    ar.u64(d.readyCycle);
    ar.b(d.issued);
    ar.b(d.completed);
}

} // namespace

template <class Self, class Ar>
void
CoProcessor::io(Self &s, Ar &ar, std::vector<std::vector<SeqNum>> &iq)
{
    ar.section("coproc");
    ar.io(s.rt_);
    ar.io(s.dispatch_cfg_);
    ar.io(s.regfile_cfg_);
    ar.io(s.regfile_);
    ar.io(s.lane_mgr_);

    const auto cores = static_cast<unsigned>(s.cores_.size());
    const std::size_t phys = s.regfile_.physRegs();
    auto ring = [&](auto &seq) {
        ar.len(seq, seq.capacity(), "checkpoint instruction queue "
                                    "exceeds its configured capacity");
        for (auto &d : seq)
            ioInst(d, ar, cores, phys);
    };
    ar.same(s.cores_.size(), "checkpoint co-processor core count mismatch");
    for (unsigned c = 0; c < cores; ++c) {
        auto &cs = s.cores_[c];
        ring(cs.pool);
        ring(cs.rob);
        ar.u64(cs.robBase);
        ar.len(iq[c], cs.rob.capacity());
        for (SeqNum &seq : iq[c])
            ar.u64(seq);
        ar.io(cs.lsu);
        ring(cs.emq);
        ar.b(cs.vlReq.resolved);
        ar.b(cs.vlReq.ok);
        ar.u64(cs.cfgDelayUntil);
        ar.u64(cs.computeIssued);
        ar.u64(cs.memIssued);
        ar.len(cs.phaseCompute);
        for (auto &v : cs.phaseCompute)
            ar.u64(v);
        ar.u64(cs.regStallCycles);
        ar.u64(cs.otherStallCycles);
    }

    ar.same(s.busy_lanes_.size(),
            "checkpoint busy-lane vector size mismatch");
    for (auto &b : s.busy_lanes_)
        ar.u32(b);
    ar.u32(s.rr_start_);

    ar.counter(s.vl_switches_);
    ar.counter(s.em_insts_);
    ar.counter(s.plans_published_);
    ar.counter(s.lane_faults_);
}

void
CoProcessor::save(ckpt::Writer &w) const
{
    // The IQ is derived from the ROB: its unissued entries' seqs.
    std::vector<std::vector<SeqNum>> iq(cores_.size());
    for (std::size_t c = 0; c < cores_.size(); ++c)
        for (const DynInst &d : cores_[c].rob)
            if (!d.issued)
                iq[c].push_back(d.seq);
    io(*this, w, iq);
}

void
CoProcessor::load(ckpt::Reader &r)
{
    std::vector<std::vector<SeqNum>> iq(cores_.size());
    io(*this, r, iq);

    // The IQ must be exactly the ROB's unissued entries, each in its
    // slot, and none may wait on another core's register (the wakeup
    // index parks a waiter on its own core's producer).
    const char *const bad_iq =
        "checkpoint IQ does not match the ROB's unissued entries";
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        CoreState &cs = cores_[c];
        std::vector<SeqNum> unissued;
        for (std::size_t i = 0; i < cs.rob.size(); ++i) {
            const DynInst &d = cs.rob[i];
            if (d.issued)
                continue;
            ckpt::Reader::check(d.seq == cs.robBase + i, bad_iq);
            unissued.push_back(d.seq);
            for (unsigned k = 0; k < d.nsrc; ++k) {
                const std::int32_t p = d.srcPhys[k];
                ckpt::Reader::check(
                    p < 0 || regfile_.readyAt(p) != kCycleNever ||
                        regfile_.holder(p) == c,
                    "checkpoint ROB entry waits on another core's register");
            }
        }
        ckpt::Reader::check(unissued == iq[c], bad_iq);
        cs.iqCount = unissued.size();
    }
    rebuildIssueIndex();
}

void
CoProcessor::printState(std::ostream &os, const std::string &what) const
{
    if (what == "rt") {
        os << "al " << rt_.al() << '\n'
           << "usable_bus " << rt_.usableBus() << '\n'
           << "faulted " << rt_.faulted() << '\n';
        for (CoreId c = 0; c < static_cast<CoreId>(cores_.size()); ++c) {
            const auto &pc = rt_.core(c);
            os << "core" << c << ".vl " << pc.vl << '\n'
               << "core" << c << ".decision " << pc.decision << '\n'
               << "core" << c << ".status " << (pc.status ? 1 : 0) << '\n'
               << "core" << c << ".oi.issue " << pc.oi.issue << '\n'
               << "core" << c << ".oi.mem " << pc.oi.mem << '\n';
        }
        return;
    }
    if (what == "lanemgr") {
        os << "total_bus " << lane_mgr_.totalBus() << '\n'
           << "plan_ready_at " << lane_mgr_.planReadyAt() << '\n'
           << "plans_made " << lane_mgr_.plansMade() << '\n';
        return;
    }
    if (what == "regfile") {
        os << "shared " << (regfile_.shared() ? 1 : 0) << '\n';
        for (CoreId c = 0; c < static_cast<CoreId>(cores_.size()); ++c)
            os << "core" << c << ".free_rows " << regfile_.freeCount(c)
               << '\n';
        return;
    }
    if (!what.empty()) {
        // Decimal core id: that core's pipeline occupancy.
        const std::size_t c = std::stoul(what);
        if (c >= cores_.size())
            throw std::out_of_range("no such core: " + what);
        const CoreState &cs = cores_[c];
        os << "pool " << cs.pool.size() << '\n'
           << "rob " << cs.rob.size() << '\n'
           << "rob_base " << cs.robBase << '\n'
           << "iq " << cs.iqCount << '\n'
           << "emq " << cs.emq.size() << '\n'
           << "lq " << cs.lsu.loadQueueOccupancy() << '\n'
           << "sq " << cs.lsu.storeQueueOccupancy() << '\n'
           << "compute_issued " << cs.computeIssued << '\n'
           << "mem_issued " << cs.memIssued << '\n'
           << "vl " << rt_.core(static_cast<CoreId>(c)).vl << '\n';
        return;
    }
    os << "cores " << cores_.size() << '\n'
       << "free_bus " << rt_.al() << '\n'
       << "usable_bus " << rt_.usableBus() << '\n'
       << "rr_start " << rr_start_ << '\n'
       << "vl_switches " << vl_switches_.value() << '\n'
       << "em_insts " << em_insts_.value() << '\n'
       << "plans_published " << plans_published_.value() << '\n'
       << "lane_faults " << lane_faults_.value() << '\n';
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const CoreState &cs = cores_[c];
        os << "core" << c << ".inflight "
           << (cs.pool.size() + cs.rob.size() + cs.emq.size()) << '\n';
    }
}

} // namespace occamy
