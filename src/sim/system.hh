/**
 * @file
 * System assembly and co-run driver: builds one of the four SIMD
 * architectures (Fig. 1), compiles each core's workload for that
 * architecture, binds arrays to disjoint address regions, runs the
 * cycle loop, and gathers the metrics the paper reports (speedups,
 * per-phase SIMD issue rates, SIMD utilization per Section 2's
 * definition, busy/allocated-lane timelines, rename-stall fractions,
 * and EM-SIMD overhead).
 */

#ifndef OCCAMY_SIM_SYSTEM_HH
#define OCCAMY_SIM_SYSTEM_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/fwd.hh"
#include "common/config.hh"
#include "compiler/compiler.hh"
#include "coproc/coproc.hh"
#include "core/scalar_core.hh"
#include "fault/fault.hh"
#include "kir/kir.hh"
#include "mem/memsystem.hh"
#include "obs/events.hh"
#include "obs/sink.hh"
#include "traffic/admission.hh"
#include "traffic/metrics.hh"
#include "traffic/scheduler.hh"
#include "traffic/traffic.hh"

namespace occamy
{

class Coordinator;

/** Per-phase outcome. */
struct PhaseResult
{
    std::string name;
    Cycle start = 0;
    Cycle end = 0;
    std::uint64_t computeIssued = 0;
    double issueRate = 0.0;     ///< SIMD compute insts / cycle.
    unsigned firstVl = 0;       ///< BUs.
    unsigned lastVl = 0;
};

/** Per-core outcome of a co-run. */
struct CoreRunResult
{
    std::string workload;
    Cycle finish = 0;           ///< Cycle the workload fully completed.
    std::vector<PhaseResult> phases;
    std::uint64_t computeIssued = 0;
    std::uint64_t memIssued = 0;
    std::uint64_t renameRegStallCycles = 0;
    std::uint64_t monitorInsts = 0;
    Cycle reconfigWaitCycles = 0;
    std::uint64_t reconfigEvents = 0;
    std::uint64_t reinitInsts = 0;

    /** Per-1000-cycle average busy lanes (timeline, Fig. 2b-e). */
    std::vector<double> busyLanesTimeline;
    /** Per-1000-cycle average allocated lanes (Fig. 14b). */
    std::vector<double> allocLanesTimeline;

    /** Fig. 15 monitoring overhead: emission slots spent on MRS
     *  <decision>, as a fraction of the core's runtime. */
    double monitorOverhead(unsigned transmit_width) const
    {
        if (!finish)
            return 0.0;
        return static_cast<double>(monitorInsts) / transmit_width /
               static_cast<double>(finish);
    }

    /** Fig. 15 reconfiguration overhead fraction. */
    double reconfigOverhead() const
    {
        if (!finish)
            return 0.0;
        return static_cast<double>(reconfigWaitCycles) /
               static_cast<double>(finish);
    }
};

/** Completion record of one batch-scheduled workload (Section 5's
 *  FCFS co-scheduling regime). */
struct BatchCompletion
{
    std::string name;
    CoreId core = 0;
    Cycle dispatched = 0;
    Cycle finished = 0;
};

/** Per-cluster outcome on a clustered machine (topology(C, K) with
 *  C > 1). Flat machines report no cluster records, keeping every
 *  pre-cluster artifact byte-identical. */
struct ClusterRunResult
{
    unsigned cluster = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t vlSwitches = 0;
    std::uint64_t plansMade = 0;
    /** DRAM bytes/cycle granted by the inter-cluster arbiter at the
     *  end of the run. */
    unsigned dramShareBpc = 0;
    /** Time-weighted mean granted share over the whole run. */
    double avgDramShareBpc = 0.0;
    /** Queued workloads adopted into / out of this cluster by the
     *  batch scheduler (cross-cluster work migration). */
    std::uint64_t migratedIn = 0;
    std::uint64_t migratedOut = 0;
};

/** Whole-machine outcome of a co-run. */
struct RunResult
{
    Cycle cycles = 0;           ///< Until the last workload finished.
    double simdUtil = 0.0;      ///< Section 2's SIMD_util over `cycles`.
    std::vector<CoreRunResult> cores;
    std::uint64_t dramBytes = 0;
    std::uint64_t vlSwitches = 0;
    std::uint64_t plansMade = 0;
    bool timedOut = false;      ///< Hit the run() cycle cap.

    /** Livelock-watchdog escalations (RunOptions::watchdogCycles). */
    std::uint64_t watchdogTrips = 0;
    /** ExeBU hard faults applied (RunOptions::faultPlan). */
    std::uint64_t laneFaults = 0;
    /** Run aborted by the wall-clock limit (nondeterministic — never
     *  part of any exported deterministic artifact). */
    bool wallKilled = false;

    /** Per-workload records for batch-queued workloads (FCFS). */
    std::vector<BatchCompletion> batch;

    /** One lifecycle record per traffic arrival (queue order). Empty
     *  unless enqueueArrival was used; traffic-off runs are unchanged
     *  in every exported artifact. */
    std::vector<traffic::JobRecord> trafficJobs;

    /** Jobs whose completion latency exceeded their SLO budget. */
    std::uint64_t sloViolations = 0;

    /** Admission-control outcome counters (all 0 — and absent from
     *  every exported artifact — unless setAdmission installed a
     *  policy). */
    std::uint64_t jobsShed = 0;     ///< Permanently rejected jobs.
    std::uint64_t jobDeferrals = 0; ///< Total defer verdicts issued.
    std::uint64_t overloadEnters = 0; ///< Times the detector tripped.

    /** Per-cluster records (clustered topologies only; empty on flat
     *  machines so their exported artifacts never change). */
    std::vector<ClusterRunResult> clusters;
    /** Inter-cluster arbiter rebalances published (0 on flat machines). */
    std::uint64_t arbiterRebalances = 0;

    /** gem5-style stats dump of the memory system and co-processor. */
    std::string statsText;

    /** Periodic metric snapshots (RunOptions::snapshotEvery > 0). */
    std::vector<obs::MetricSnapshot> snapshots;
};

/** Why the fast-forward engine chose a particular wake cycle. */
enum class WakeSource : std::uint8_t
{
    Coproc,     ///< Co-processor pipeline / lane-manager event.
    Core,       ///< Scalar-core event (stall deadline, next step).
    Mem,        ///< In-flight DRAM line fill completes.
    Dispatch,   ///< Batch context switch finishes.
    Snapshot,   ///< Periodic metric-snapshot boundary.
    Cap,        ///< Nothing pending before the maxCycles cap.
    Fault,      ///< Fault-plan boundary (lane fault / window edge).
    Watchdog,   ///< Livelock-watchdog deadline for a spinning core.
    Checkpoint, ///< Pause boundary: advance() stop cycle or a periodic
                ///< checkpoint-write cycle. Engine bookkeeping only —
                ///< never changes simulated state.
    Arrival,    ///< Next traffic arrival becomes dispatchable. A state
                ///< change the component probes can't see, so it must
                ///< be a wake candidate or fast-forward would idle past
                ///< new work.
    Arbiter,    ///< Inter-cluster bandwidth-rebalance boundary
                ///< (clustered topologies only): the arbiter may change
                ///< per-cluster DRAM grants there, which no component
                ///< probe can anticipate.
    Admission,  ///< Earliest admission re-evaluation boundary: a
                ///< deferred job's backoff expiry or a token-bucket
                ///< refill instant. Like Arrival, invisible to
                ///< component probes, so it must be a wake candidate.
};

/**
 * Accounting of one run's fast-forward behaviour, summed over the
 * cluster engines in cluster order (DESIGN.md §8). Each engine ticks or
 * skips every simulated cycle, so cyclesTicked + cyclesSkipped =
 * numClusters x cyclesSimulated, and numClusters x cyclesSimulated /
 * cyclesTicked is the leverage on that workload (1.0 when fast-forward
 * is off or no engine is ever quiescent).
 */
struct FastForwardStats
{
    Cycle cyclesSimulated = 0;      ///< Cycles the run covered.
    Cycle cyclesTicked = 0;         ///< Engine-cycles ticked.
    Cycle cyclesSkipped = 0;        ///< Engine-cycles skipped.
    std::uint64_t spans = 0;        ///< An engine's runs of skips.
    Cycle longestSpan = 0;          ///< Longest such run, cycles.
};

/** Cycles per point of the per-core busy/allocated-lane timelines. */
constexpr unsigned kTimelineBucket = 1000;

/** Knobs of one System::run() invocation. */
struct RunOptions
{
    Cycle maxCycles = 20'000'000;   ///< Safety cap (sets timedOut).

    /** Event sink to attach to every component for this run; null
     *  disables tracing (the zero-overhead default). Borrowed — must
     *  outlive the run() call. */
    obs::EventSink *sink = nullptr;

    /** Emit a metric snapshot every N cycles (0 = never). */
    Cycle snapshotEvery = 0;

    /** Skip quiescent spans of the cycle loop (results are identical
     *  either way; off forces the classic tick-every-cycle loop). */
    bool fastForward = true;

    /** If non-null, receives the run's fast-forward accounting.
     *  Borrowed — must outlive the run() call. */
    FastForwardStats *ffStats = nullptr;

    /** Fault plan to inject (null or empty = fault-free, the default;
     *  with no plan and no watchdog the run is byte-identical to a
     *  build without the fault subsystem). Borrowed — must outlive the
     *  run() call. */
    const fault::FaultPlan *faultPlan = nullptr;

    /** Livelock watchdog: a <VL>-request episode (initial write plus
     *  its Fig. 9 retry spin) older than this many cycles is escalated
     *  to the multi-version scalar fallback. 0 = watchdog off. */
    Cycle watchdogCycles = 0;

    /** Hard wall-clock kill: abort the run (wallKilled = true) once it
     *  has consumed this many seconds of host time. 0 = off. Checked
     *  coarsely (every 64k ticked cycles); inherently nondeterministic,
     *  so it feeds no deterministic artifact. */
    double wallClockLimitSec = 0.0;

    /** Periodic checkpointing: every checkpointEvery cycles, pause at
     *  the cycle boundary and (over)write checkpointOut, so the file
     *  always holds the most recent snapshot — the post-mortem
     *  workflow of DESIGN.md §11. Both must be set; writing never
     *  perturbs simulated state or kEvAll-visible traces. */
    std::string checkpointOut;
    Cycle checkpointEvery = 0;

    /** Threads running the cluster engines' tick windows (DESIGN.md
     *  §15), capped at the cluster count; <= 1 (and every flat
     *  machine) ticks the engines serially. Results, stats, event
     *  streams, checkpoints, and fingerprints are byte-identical for
     *  any value — the thread count is an engine knob, never simulated
     *  state, so it is deliberately excluded from the checkpoint
     *  fingerprint. */
    unsigned simThreads = 1;
};

/** One simulated machine plus the workloads bound to its cores. */
class System
{
  public:
    explicit System(MachineConfig cfg);
    ~System();      ///< Out of line: Coordinator is incomplete here.

    /**
     * Assign a workload (list of kernel loops) to a core. Must be
     * called for every core before run(); pass an empty list for an
     * idle core.
     */
    void setWorkload(CoreId core, std::string name,
                     std::vector<kir::Loop> loops);

    /**
     * Queue a workload for FCFS dispatch (Section 5's co-scheduling
     * assumption): whichever core first completes its current workload
     * picks up the queue head after an OS context switch, whose cost
     * covers draining the pipelines and saving/restoring the EM-SIMD
     * dedicated registers.
     */
    void enqueueWorkload(std::string name, std::vector<kir::Loop> loops);

    /**
     * Queue one traffic arrival (src/traffic): like enqueueWorkload,
     * but the entry only becomes dispatchable at its effective arrival
     * cycle — Arrival::arriveAt, or for closed-loop jobs the
     * predecessor's completion plus the think time — and its lifecycle
     * (arrive/admit/finish, SLO compliance) is tracked into
     * RunResult::trafficJobs.
     */
    void enqueueArrival(const traffic::Arrival &a);

    /**
     * Select the dispatch discipline for queued work (default: the
     * "fcfs" registry object). A plain batch wanting OI-aware
     * co-placement passes dispatcherByName("oi"). Borrowed — must
     * outlive the System. Registry objects (traffic::dispatcherByName)
     * are immortal singletons, so those are always safe.
     */
    void setDispatcher(const traffic::Dispatcher *d) { dispatcher_ = d; }

    /**
     * Install an admission policy gating entry of traffic arrivals
     * into the dispatchable pool (src/traffic/admission.hh). Null
     * (the default) disables the layer entirely: no admission state
     * exists, checkpoints/fingerprints/exports are byte-identical to
     * pre-admission builds. Borrowed like the dispatcher; registry
     * policies (traffic::admissionByName) are immortal singletons.
     * @p cap is the policy knob (per-tenant in-flight bound or token
     * bucket capacity; must be >= 1 when a policy is set).
     * @p refillPeriod is the token-bucket refill period in cycles
     * (one token per tenant per period); 0 picks a 100k-cycle
     * default. Only meaningful on runs with traffic arrivals.
     */
    void
    setAdmission(const traffic::AdmissionPolicy *p, unsigned cap = 4,
                 Cycle refillPeriod = 0)
    {
        admission_ = p;
        admission_cap_ = cap;
        admission_refill_ = refillPeriod;
    }

    /** Run to completion of all workloads under @p opt. Equivalent to
     *  boot(opt); advance(); finalize(). */
    RunResult run(const RunOptions &opt = {});

    // --- Incremental driving (occamy-serve, checkpointing). ---

    /**
     * Build the machine and compile/bind every core's workload, but
     * tick nothing yet: the run sits paused at cycle 0. Replaces any
     * in-progress run. @p opt is copied; its borrowed pointers (sink,
     * ffStats, faultPlan) must outlive the booted state.
     */
    void boot(const RunOptions &opt = {});

    /** @return true between boot()/restoreCheckpoint() and finalize(). */
    bool booted() const { return co_ != nullptr; }

    /** Current cycle of the booted run (the next cycle to execute). */
    Cycle now() const;

    /** @return true once the booted run has completed (all workloads
     *  done, or a cap/kill ended it). */
    bool finished() const;

    /** @return true while the booted run's admission controller is in
     *  its overload regime. Always false when no admission policy is
     *  installed (setAdmission) or the run is not booted; callers like
     *  occamy-serve use it to shed work before queueing more. */
    bool overloaded() const;

    /**
     * Execute the cycle loop until it completes or reaches @p stopAt
     * (whichever is first). Pausing at a cycle boundary is exact: the
     * artifacts of a paused-and-resumed run are byte-identical to an
     * uninterrupted one (only engine accounting — fast-forward span
     * shapes — may differ). @return finished().
     */
    bool advance(Cycle stopAt = kCycleNever);

    /** Gather the result and tear down the booted state. */
    RunResult finalize();

    // --- Checkpoint/restore (src/ckpt, DESIGN.md §11). ---

    /** Serialize the paused run to @p os. Requires booted(). */
    void saveCheckpoint(std::ostream &os) const;

    /**
     * Boot under @p opt, then load state from @p is, resuming exactly
     * where saveCheckpoint left off. The System must carry the same
     * config and workloads, and @p opt the same determinism-relevant
     * options, as the saving run (enforced via a fingerprint check).
     * Throws ckpt::Error on any mismatch or corruption; the System is
     * left un-booted on failure.
     */
    void restoreCheckpoint(std::istream &is, const RunOptions &opt = {});

    /** MGSim-style live inspection: dump the state of the component at
     *  @p path (see componentPaths()). Requires booted(). */
    std::string inspect(const std::string &path) const;

    /** Inspectable component paths of this machine. */
    std::vector<std::string> componentPaths() const;

    const MachineConfig &config() const { return cfg_; }

  private:
    /** The booted run (co_) reads the workloads and the queue. */
    friend class Coordinator;

    /** Config+workload+options digest stored in checkpoints. */
    std::uint64_t fingerprint(const Coordinator &x) const;

    /** The checkpoint field list, shared by saveCheckpoint() and
     *  restoreCheckpoint(). @p busy, @p region and @p strs are the
     *  slots whose value is derived on save and applied on restore. */
    template <class X, class Ar>
    void io(X &x, Ar &ar, double &busy, unsigned &region,
            std::vector<std::string> &strs) const;

    MachineConfig cfg_;
    std::vector<std::string> names_;
    std::vector<std::vector<kir::Loop>> loops_;
    std::vector<std::pair<std::string, std::vector<kir::Loop>>> queue_;

    /** Traffic metadata parallel to queue_, without the loops (plain
     *  enqueueWorkload entries carry only their name). has_traffic_
     *  decides whether a booted run gets a traffic::Session, which
     *  gates every traffic-side artifact so traffic-off runs stay
     *  byte-identical. */
    std::vector<traffic::Arrival> queue_meta_;
    bool has_traffic_ = false;
    const traffic::Dispatcher *dispatcher_ = nullptr;

    /** Admission layer (null = off; see setAdmission). */
    const traffic::AdmissionPolicy *admission_ = nullptr;
    unsigned admission_cap_ = 4;
    Cycle admission_refill_ = 0;

    std::unique_ptr<Coordinator> co_;
};

/**
 * Convenience: co-run @p workloads (one per core) under policy @p p and
 * return the result. The machine is sized with 4 ExeBUs per core; all
 * run knobs come from @p opt.
 */
RunResult corun(SharingPolicy p,
                const std::vector<std::pair<std::string,
                                            std::vector<kir::Loop>>> &wls,
                const RunOptions &opt = {});

} // namespace occamy

#endif // OCCAMY_SIM_SYSTEM_HH
