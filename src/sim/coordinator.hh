/**
 * @file
 * The coordinator of one booted run: the machine System::boot builds
 * and the cycle loop that drives it (DESIGN.md §8, §15).
 *
 * System keeps the machine's description (config, workloads, queue)
 * and forwards boot/advance/finalize; checkpoints, finalize and live
 * inspection read the Coordinator's fields. It owns one ClusterEngine
 * per cluster, the inter-cluster arbiter, the fault injector, the
 * compiled programs, the batch-dispatch and traffic state, and the
 * loop state, all built once at boot (restore boots, then loads).
 *
 * advance() runs windows. preTick() does the work at the top of a
 * window's first cycle, windowHorizon() bounds the window, and
 * runWindow() lets the engines tick it in rounds (runRound()) while its
 * cursor visits, among the cycles they covered, those that need a
 * serialStep(): engine edges, due traffic cycles, idle-core polls and
 * the window's last cycle, where the machine-wide skip is decided on
 * live probes. Each engine skips its own quiescent stretches inside a
 * window and counts what it ticked and skipped; advance() sums the
 * counts into `ff`. Each step is a public member, so tests drive it
 * without advance().
 */

#ifndef OCCAMY_SIM_COORDINATOR_HH
#define OCCAMY_SIM_COORDINATOR_HH

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "fault/injector.hh"
#include "lanemgr/cluster_arbiter.hh"
#include "lanemgr/roofline.hh"
#include "policy/sharing_model.hh"
#include "sim/cluster_engine.hh"
#include "sim/system.hh"
#include "sim/tick_pool.hh"
#include "sim/wake_table.hh"
#include "traffic/session.hh"

namespace occamy
{

class Coordinator
{
  public:
    /** Build the machine for @p sys's config and workloads under
     *  @p opt, compile and bind every core's workload, and tick
     *  nothing: the run sits paused at cycle 0. @p sys must outlive
     *  the Coordinator (its queue is read at every dispatch). */
    Coordinator(const System &sys, const RunOptions &opt);
    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** System::advance: run until complete or @p stop_at. */
    bool advance(Cycle stop_at);

    // --- The steps of the cycle loop (DESIGN.md §15). ---

    /** Top of a window at `now`: engines begin it, then the pause
     *  check, periodic checkpoint, wall-clock kill, fault boundary
     *  events and arbiter re-split. @return false when advance() must
     *  return (paused, or killed and complete). */
    bool preTick();

    /** End (exclusive) of the window starting at `now`: nothing
     *  outside the engines acts inside it. */
    Cycle windowHorizon() const;

    /** Tick [now, horizon) round by round with a serial step wherever
     *  one is due, leaving `now` at the next window (or at the cycle
     *  the run completed). */
    void runWindow();

    /** One round: each engine the cursor has caught up with runs on to
     *  its next stop, at most to the window end; an engine without a
     *  live core runs only through the cursor (`limit` = now + 1), so
     *  no engine ticks past the run's last cycle. */
    void runRound();

    /** The serial step after the engines ticked `now`: watchdog,
     *  traffic admission, dispatch, completion, snapshot. Inside a
     *  window only traffic, engine stops (`edge`) and idle polls act;
     *  at its last cycle the full step runs on live state. Sets
     *  `complete` once every core is done. */
    void serialStep(bool window_end);

    /** Completion, traffic lifecycle and next pick for core @p c, done
     *  and drained with no dispatch pending. A no-op on an idle core
     *  unless the queue changed. */
    void settle(unsigned c);

    /** The queue entry idle @p core picks up next, or the queue size
     *  when none is dispatchable (nothing arrived or admitted).
     *  Without traffic, a clustered machine prefers entries whose home
     *  cluster (q % numClusters) is the core's own, and adopts foreign
     *  work only when no home entry is left. */
    std::size_t selectNext(CoreId core);

    /** Normalized machine progress (the weighted-speedup objective) if
     *  OI @p cand joins the other cores of @p target's cluster. */
    double progressWith(const PhaseOI &cand, CoreId target) const;

    /** The machine-wide skip after `now`, every engine quiescent with
     *  `probes`: the earliest wake over the probes (co-processors,
     *  cores, memories) and the wake table, ties keeping the first,
     *  capped at the pause and checkpoint cycles. A skip emits
     *  SchedFastForward. @return the next cycle to run. */
    Cycle fastForwardFrom();

    /** The skip at a window's last cycle, on live probes, which then
     *  re-base every engine's quiescent stretch. */
    Cycle liveFastForward();

    /** Forward buffered engine events of cycles <= @p upto, cycle by
     *  cycle, each in cluster-id order (nothing without a sink). A run
     *  that throws mid-window keeps its trace up to the last cycle
     *  drained. */
    void drainUpTo(Cycle upto);

    /** Overwrite opt.checkpointOut with the paused run. */
    void writeCheckpoint();

    /** Compile a workload for core @p c, bind its arrays to the next
     *  address region, and keep the program. */
    const Program *compileAndBind(CoreId c, const std::string &name,
                                  const std::vector<kir::Loop> &loops);

    /** Per-cluster flat views with their resolved static plans. */
    std::vector<MachineConfig> clusterViews() const;

    /** Register the machine-level wake candidates in the tie order of
     *  the wake ladder's last tier. */
    void registerWakes();

    // --- Topology helpers. ---

    /** Engine that owns global core @p c. */
    ClusterEngine &eng(unsigned c) { return *engines[c / cpk]; }
    const ClusterEngine &eng(unsigned c) const { return *engines[c / cpk]; }
    /** Global core id -> cluster-local core id. */
    CoreId lc(unsigned c) const { return static_cast<CoreId>(c % cpk); }
    unsigned clusterOf(unsigned c) const { return c / cpk; }
    /** Global core accessor. */
    ScalarCore &core(unsigned c) { return eng(c).core(lc(c)); }
    const ScalarCore &core(unsigned c) const { return eng(c).core(lc(c)); }

    // --- The machine and the run's simulated state. ---

    const System &sys;
    RunOptions opt;
    MachineConfig cfg;          ///< Resolved (static plan filled in).
    const policy::SharingModel &model;
    unsigned ncl = 1;           ///< cfg.numClusters, cached.
    unsigned cpk = 1;           ///< Cores per cluster, cached.

    /** Level-2 lane manager; only clustered machines have one. */
    std::unique_ptr<ClusterArbiter> arbiter;
    /** Arrival and admission lifecycle of the queue; exists only when
     *  traffic arrivals were enqueued, so its presence gates every
     *  traffic-side branch, event, checkpoint section and export. */
    std::unique_ptr<traffic::Session> traffic;
    /** One tick engine per cluster; flat machines are the 1-cluster
     *  case (sim/cluster_engine.hh). */
    std::vector<std::unique_ptr<ClusterEngine>> engines;
    std::unique_ptr<fault::FaultInjector> injector;

    std::vector<std::unique_ptr<Program>> programs;
    unsigned region = 0;
    /** Queued-workload compiles in dispatch order (core, queue index):
     *  replayed verbatim on restore so program addresses, phase-id
     *  layout and the `region` counter come out identical. */
    std::vector<std::pair<CoreId, std::uint64_t>> compile_log;
    /** Per core: index into `programs` of the installed program. */
    std::vector<std::uint64_t> core_prog;

    RunResult result;
    unsigned total_lanes = 0;
    std::vector<Cycle> finish;
    std::vector<bool> done;

    // Batch dispatch state (Section 5).
    const traffic::Dispatcher *dispatcher = nullptr;    ///< Never null.
    std::vector<bool> dispatched;
    std::size_t undispatched = 0;
    std::vector<PhaseOI> queue_oi;
    RooflineParams roofline;
    /** What each core is running or about to run, for placement
     *  decisions (the resource table lags behind pending dispatches). */
    std::vector<PhaseOI> sched_oi;
    std::vector<Cycle> dispatch_at;
    std::vector<std::size_t> pending_wl;

    /** The engines' counts, summed in cluster order whenever advance()
     *  returns and before a checkpoint is written. */
    FastForwardStats ff;
    std::uint64_t watchdog_trips = 0;
    std::chrono::steady_clock::time_point wall_start;
    Cycle now = 0;
    Cycle last_finish = 0;
    bool complete = false;

    // --- Loop state: engine bookkeeping, never simulated state. ---

    WakeTable wakes;            ///< See registerWakes().
    /** Worker pool for the window rounds, started by the first
     *  advance() that ticks, so a booted machine that never runs holds
     *  no threads; stays null with one tick thread. */
    std::unique_ptr<TickPool> pool;
    std::function<void(unsigned)> round_task;
    std::vector<Cycle> limit;   ///< Per engine: this round's limit.
    std::vector<ClusterEngine::Probe> probes;
    /** Per core: done and drained with nothing dispatched (a poll can
     *  settle it), and stopped at this cycle's edge. */
    std::vector<bool> idle;
    std::vector<bool> edge;
    std::vector<traffic::PendingJob> pending;
    /** An idle core is left with the queue empty: poll every cycle. */
    bool rescan = true;
    Cycle stop_at = kCycleNever;    ///< This advance() call's pause.
    Cycle next_ckpt = kCycleNever;  ///< Next periodic checkpoint.
    Cycle wall_check = 0;       ///< Cycle of the next clock read.
    Cycle horizon = 0;          ///< End of the current window.
};

} // namespace occamy

#endif // OCCAMY_SIM_COORDINATOR_HH
