/**
 * @file
 * The Occamy SIMD co-processor micro-architecture (Section 4, Fig. 5).
 *
 * One CoProcessor instance serves all scalar cores. Per cycle, in
 * back-to-front stage order: commit (per-core ROBs), issue (compute to
 * the owned ExeBUs, ld/st to the LSUs), rename (instruction pool ->
 * IQ/ROB, allocating physical rows), and the Manager's EM-SIMD data
 * path (ResourceTbl updates, LaneMgr plans, vector-length
 * reconfiguration with pipeline-drain semantics, Section 4.2.2).
 *
 * The sharing policies map onto the same structures; every
 * policy-conditional behavior (boot ownership, issue eligibility,
 * drain rules, <VL> resolution) is delegated to the config's
 * policy::SharingModel:
 *  - Private: ExeBUs/RegBlks statically owned, per-core issue budgets;
 *  - FTS: no ownership, full-width execution, *shared* issue budgets
 *    and one shared full-width physical register pool;
 *  - VLS: static ownership from a boot-time plan;
 *  - Elastic (Occamy): ownership retargeted at run time by EM-SIMD
 *    instructions under LaneMgr guidance;
 *  - extensions (e.g. VLS-WC) plug in via the policy registry.
 */

#ifndef OCCAMY_COPROC_COPROC_HH
#define OCCAMY_COPROC_COPROC_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "coproc/dyninst.hh"
#include "coproc/inst_ring.hh"
#include "coproc/lsu.hh"
#include "coproc/regfile.hh"
#include "coproc/tables.hh"
#include "lanemgr/lanemgr.hh"
#include "mem/memsystem.hh"
#include "obs/sink.hh"
#include "policy/sharing_model.hh"

namespace occamy
{

namespace fault
{
class FaultInjector;
}

/** Result of a front-end poll on an outstanding <VL> write. */
struct VlRequestStatus
{
    bool resolved = false;
    bool ok = false;
};

/** The shared SIMD co-processor. */
class CoProcessor
{
  public:
    CoProcessor(const MachineConfig &cfg, MemSystem &mem);

    // --- Front-end interface (scalar cores push work in). ---

    /** @return true if core @p c's instruction pool has space. */
    bool canEnqueue(CoreId c) const;

    /** Enqueue a retired SVE instruction into the instruction pool. */
    void enqueue(DynInst inst);

    /** @return true if the EM-SIMD queue of core @p c has space. */
    bool canEnqueueEmSimd(CoreId c) const;

    /** Enqueue an EM-SIMD instruction (separate in-order data path). */
    void enqueueEmSimd(DynInst inst);

    /** Poll / acknowledge the outcome of an outstanding <VL> write. */
    VlRequestStatus vlRequestStatus(CoreId c) const;
    void ackVlRequest(CoreId c);

    /**
     * Abandon core @p c's outstanding <VL> request (livelock-watchdog
     * escalation): drop the pending MsrVL from the EM-SIMD queue and
     * clear the request latch, leaving the core's current ownership
     * untouched. The core falls back to its scalar loop version (§6).
     */
    void cancelVlRequest(CoreId c);

    // --- Architectural state visible to software (MRS reads). ---
    unsigned currentVl(CoreId c) const { return rt_.core(c).vl; }
    unsigned decision(CoreId c) const { return rt_.core(c).decision; }
    unsigned freeBus() const { return rt_.al(); }
    const ResourceTable &resourceTable() const { return rt_; }

    /** @return true when core @p c has nothing in flight (drained). */
    bool coreDrained(CoreId c) const;

    /** Attach a fault injector (null = fault-free; the default). */
    void setFaultInjector(fault::FaultInjector *inj) { injector_ = inj; }

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Quiescence probe for the fast-forward engine: earliest future
     * cycle (> @p now) at which a tick could change architectural,
     * timing, or observable state — the next ROB head retire, LSU
     * queue release, pool head clearing its transmit-retire gate, IQ
     * entry becoming issueable, EM-SIMD queue progress, or pending
     * lane-partition plan publication. Returns kCycleNever when fully
     * drained. Returning now+1 means "cannot skip"; the probe may be
     * conservative (wake early — an extra tick of a quiescent machine
     * is a no-op) but never optimistic.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Account for @p span skipped quiescent cycles. Ticking a
     * quiescent co-processor is a no-op except under FTS, where the
     * issue stage's round-robin pointer advances every cycle; advance
     * it here so arbitration after a skip matches the ticked run.
     */
    void skipCycles(Cycle span);

    // --- Metrics. ---

    /** Lanes of core @p c that executed compute µops this cycle. */
    unsigned busyLanes(CoreId c) const { return busy_lanes_.at(c); }

    /** Lanes currently allocated to core @p c. */
    unsigned allocatedLanes(CoreId c) const;

    /** Lanes on ExeBUs that still work (hard faults excluded). */
    unsigned usableLanes() const { return rt_.usableBus() * kLanesPerBu; }

    /** ExeBU hard faults applied so far. */
    std::uint64_t laneFaults() const { return lane_faults_.value(); }

    std::uint64_t computeIssued(CoreId c) const;
    std::uint64_t memIssued(CoreId c) const;
    std::uint64_t computeIssuedInPhase(CoreId c, unsigned phase) const;
    std::uint64_t renameRegStallCycles(CoreId c) const;
    std::uint64_t renameOtherStallCycles(CoreId c) const;
    std::uint64_t vlSwitches() const { return vl_switches_.value(); }
    std::uint64_t plansMade() const { return lane_mgr_.plansMade(); }

    void regStats(stats::Group &group) const;

    /** Attach/detach the trace sink (null = tracing off); forwarded
     *  to the embedded LaneMgr. */
    void setEventSink(obs::EventSink *sink)
    {
        sink_ = sink;
        lane_mgr_.setEventSink(sink);
    }

    const MachineConfig &config() const { return cfg_; }

    /** Checkpoint hooks: tables, regfile, lane manager, and every
     *  per-core pipeline structure (pool/ROB/IQ/LSU/EMQ). */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

    /** One-line-per-fact state dump for live inspection. @p what
     *  selects a sub-component: "" (summary), "rt", "lanemgr",
     *  "regfile", or a decimal core id for that core's pipeline. */
    void printState(std::ostream &os, const std::string &what) const;

  private:
    /** The checkpoint field list, shared by save() and load(); each
     *  core's IQ travels as the seq list @p iq[c]. */
    template <class Self, class Ar>
    static void io(Self &s, Ar &ar, std::vector<std::vector<SeqNum>> &iq);

    /** EM-SIMD queue depth (Fig. 5's small in-order buffer). */
    static constexpr std::size_t kEmqDepth = 8;

    /** Issue classes of the wakeup index: each has its own issue
     *  budget (compute) or LSU queue (load, store) that can close for
     *  the rest of a cycle independently of the others. */
    enum IssueClass : unsigned
    {
        kCompute = 0,
        kLoad = 1,
        kStore = 2,
        kNumIssueClasses = 3
    };

    /** "No entry" result of nextReady(). */
    static constexpr std::size_t kNoEntry = ~std::size_t{0};

    /** A known future operand-ready cycle of an IQ entry. */
    struct TimedEntry
    {
        Cycle at;
        SeqNum seq;
        bool operator>(const TimedEntry &o) const { return at > o.at; }
    };

    /** Per-core pipeline state. The in-flight instruction queues are
     *  arena-backed rings (coproc/inst_ring.hh): each is bounded by
     *  configuration, so one contiguous allocation at construction
     *  serves the machine's lifetime and the per-cycle stage walks
     *  touch consecutive cache lines instead of chasing deque chunks.
     *
     *  The issue queue is the ROB's unissued entries plus a count.
     *  Which of them can issue is kept by the wakeup index (DESIGN.md
     *  §8, "Issue stage: wakeup index"), over ROB slots
     *  `seq & slotMask` (the ROB capacity rounded up to a power of
     *  two, at least 64): a ready bitset per issue class, a
     *  min-heap per class of entries whose operands become ready at a
     *  known later cycle, and a waiter-list link per slot for entries
     *  parked on a source whose producer has not issued. The index is
     *  derived state: never serialized, rebuilt on restore. */
    struct CoreState
    {
        explicit CoreState(const MachineConfig &cfg)
            : pool(cfg.instPoolEntries), rob(cfg.robEntries), lsu(cfg),
              emq(kEmqDepth),
              slotMask(std::bit_ceil(std::max<std::size_t>(
                           rob.capacity(), 64)) - 1),
              readyWords((slotMask + 1) / 64),
              ready(readyWords * kNumIssueClasses, 0),
              waitNext(readyWords * 64, -1)
        {
            for (auto &h : timed)
                h.reserve(rob.capacity());
        }

        InstRing pool;                  ///< Instruction pool (FIFO).
        InstRing rob;                   ///< Renamed, program order.
        SeqNum robBase = 0;             ///< seq of rob.front().
        std::size_t iqCount = 0;        ///< Unissued ROB entries.
        Lsu lsu;
        InstRing emq;                   ///< EM-SIMD in-order queue.

        VlRequestStatus vlReq;

        /** Injected reconfiguration delay: a granted resize at the emq
         *  head stalls until this cycle (0 = no delay pending). */
        Cycle cfgDelayUntil = 0;

        std::uint64_t computeIssued = 0;
        std::uint64_t memIssued = 0;
        std::vector<std::uint64_t> phaseCompute;  ///< By phaseId.
        std::uint64_t regStallCycles = 0;
        std::uint64_t otherStallCycles = 0;

        // --- Wakeup index (derived state). ---
        std::size_t slotMask;           ///< Slot count (a power of two) - 1.
        std::size_t readyWords;         ///< 64-slot words per class.
        /** Ready bits, word-interleaved: [word * classes + class]. */
        std::vector<std::uint64_t> ready;
        /** Per class: entries waiting for a known operand-ready cycle. */
        std::array<std::vector<TimedEntry>, kNumIssueClasses> timed;
        /** Per slot: next slot on the same waiter list (-1 ends it). */
        std::vector<std::int32_t> waitNext;

        std::size_t slotOf(SeqNum seq) const
        {
            return static_cast<std::size_t>(seq) & slotMask;
        }

        /** Ready-bit word of class @p k holding @p slot's bit
         *  (`1 << (slot & 63)`). */
        std::uint64_t &readyWord(std::size_t slot, IssueClass k)
        {
            return ready[(slot >> 6) * kNumIssueClasses + k];
        }
    };

    DynInst &robEntry(CoreState &cs, SeqNum seq);

    static IssueClass issueClass(const DynInst &inst)
    {
        return inst.isCompute() ? kCompute
                                : inst.isStore() ? kStore : kLoad;
    }

    /** Place unissued entry @p inst of core @p c in the wakeup index:
     *  the ready set if its operands are ready at @p now, its class
     *  heap if they become ready at a known later cycle, or the waiter
     *  list of its first source whose producer has not issued. Loads
     *  issue without an operand check, so they are always ready. */
    void indexEntry(CoreId c, CoreState &cs, const DynInst &inst,
                    Cycle now);

    /** Re-index the entries parked on @p phys, whose producer (seq
     *  @p producer of core @p c) just issued. */
    void wakeWaiters(CoreId c, CoreState &cs, std::int32_t phys,
                     SeqNum producer, Cycle now);

    /** Move the heap entries of core @p cs that are due by @p now to
     *  the ready sets. */
    void drainTimed(CoreState &cs, Cycle now);

    /** Classes core @p cs can still issue this cycle: compute while
     *  the compute budget lasts, loads/stores while the ld/st budget
     *  lasts and their LSU queue has room. Bit i = IssueClass i. */
    static unsigned openClasses(const CoreState &cs,
                                unsigned compute_budget,
                                unsigned mem_budget);

    /** ROB offset (seq - robBase) of core @p cs's oldest ready entry
     *  at offset >= @p from in a class of @p classes, or kNoEntry. */
    static std::size_t nextReady(const CoreState &cs, std::size_t from,
                                 unsigned classes);

    /** @return true if core @p cs has a ready entry of class @p k. */
    static bool anyReady(const CoreState &cs, IssueClass k);

    /** Rebuild every core's wakeup index from the ROBs and the
     *  register file (checkpoint restore). */
    void rebuildIssueIndex();

    /** The LSU serving core @p c (one shared LSU under FTS). */
    Lsu &lsuFor(CoreId c);

    /** IQ occupancy relevant to core @p c (machine-wide under FTS). */
    std::size_t iqLoad(CoreId c) const;

    /** Apply ExeBU hard faults due at @p now (top of tick). */
    void applyFaults(Cycle now);

    void commitStage(Cycle now);
    void issueStage(Cycle now);
    void renameStage(Cycle now);
    void managerStage(Cycle now);

    /** Try to issue ready ROB entry @p seq of core @p c, whose class is
     *  open. @return true if it left the IQ this cycle. The only
     *  rejection left is a gather/scatter that needs the full ld/st
     *  width; it returns before touching any state. */
    bool tryIssue(CoreId c, SeqNum seq, Cycle now, unsigned &compute_budget,
                  unsigned &mem_budget);

    /** Execute the head EM-SIMD instruction of core @p c.
     *  @return true if it retired (pop it). */
    bool execEmSimd(CoreId c, const DynInst &inst, Cycle now);

    /** @return true if @p inst at the head of core @p c's EM-SIMD
     *  queue would wait (MsrVL pipeline-drain condition, or an armed
     *  injected reconfiguration delay) rather than retire if executed
     *  at @p now. Mirrors execEmSimd's wait paths. */
    bool emHeadWaits(CoreId c, const DynInst &inst, Cycle now) const;

    /** Decode the VL (in BUs) a MsrVL instruction requests: its
     *  immediate, or the core's <decision> register (falling back to
     *  the current <VL> when no decision is published). */
    unsigned vlTarget(CoreId c, const DynInst &inst) const;

    /** Apply a successful vector-length retarget for core @p c. */
    void applyVl(CoreId c, unsigned target, Cycle now = 0);

    MachineConfig cfg_;
    const policy::SharingModel &model_;
    MemSystem &mem_;

    ResourceTable rt_;
    ConfigTable dispatch_cfg_;      ///< ExeBU ownership.
    ConfigTable regfile_cfg_;       ///< RegBlk ownership.
    RegFileModel regfile_;
    LaneMgr lane_mgr_;

    std::vector<CoreState> cores_;
    std::vector<unsigned> busy_lanes_;  ///< Per core, this cycle.
    unsigned rr_start_ = 0;             ///< FTS round-robin pointer.
    std::vector<std::size_t> fts_cursor_;  ///< FTS issue scratch.

    /** Per physical register: head ROB slot of the waiter list of its
     *  holder core (-1 = none). Derived state, like the per-core
     *  index. */
    std::vector<std::int32_t> wait_head_;

    stats::Counter vl_switches_;
    stats::Counter em_insts_;
    stats::Counter plans_published_;
    stats::Counter lane_faults_;

    obs::EventSink *sink_ = nullptr;    ///< Borrowed, may be null.
    fault::FaultInjector *injector_ = nullptr;  ///< Borrowed, may be null.
};

} // namespace occamy

#endif // OCCAMY_COPROC_COPROC_HH
