/**
 * @file
 * Event taxonomy of the simulation observability layer.
 *
 * An Event is one fixed-size structured record of something the
 * simulator did at a cycle: a pipeline action (dispatch/issue/retire),
 * a lane-partition decision with its roofline inputs, a vector-length
 * reconfiguration step, a DRAM transaction, a phase boundary, or a
 * batch-dispatch decision. Events carry no strings; names (phase and
 * workload labels) are interned into the sink's string table and
 * referenced by id, so recording stays allocation-free on the hot path.
 *
 * Overhead contract: every instrumentation point is guarded by a plain
 * `if (sink)` pointer test (and a non-virtual mask check), so a run
 * with no sink attached pays one predictable branch per site and
 * nothing else.
 */

#ifndef OCCAMY_OBS_EVENTS_HH
#define OCCAMY_OBS_EVENTS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace occamy::obs
{

/** What happened. Payload field meaning is listed per kind. */
enum class EventKind : std::uint8_t
{
    // --- Phase boundaries (ScalarCore). ---
    PhaseBegin,     ///< a=name id, b=phaseId.
    PhaseEnd,       ///< a=name id, b=phaseId.

    // --- Co-processor pipeline. ---
    Dispatch,       ///< Renamed pool->ROB/IQ. a=opcode, b=seq.
    Issue,          ///< Left the IQ. a=opcode, b=seq, x=activeLanes.
    Retire,         ///< Committed from the ROB. a=opcode, b=seq.
    RenameStall,    ///< Rename blocked this cycle. a=1 regs, 0 other.

    // --- Lane manager (Section 5, Eq. 2-4). ---
    OiUpdate,       ///< MSR <OI>. a=mem level, x=oi.issue, y=oi.mem.
    RooflineEval,   ///< Per-core plan input. a=mem level, b=granted
                    ///< share (ExeBUs), x=AP(share), y=AP(share+1)
                    ///< GFLOP/s -- the marginal-gain pair.
    PartitionDecision, ///< Per-core published share. b=share (ExeBUs).
    PartitionPlan,  ///< Plan summary. a=sum of shares, b=total ExeBUs.

    // --- Vector-length reconfiguration (Fig. 9 protocol). ---
    VlRequest,      ///< Core emitted MSR <VL>. a=current vl,
                    ///< b=requested vl (0 = from <decision>).
    VlResolve,      ///< <status> observed. a=ok, b=vl after.
    VlApply,        ///< Co-processor retargeted lanes. a=new vl,
                    ///< b=free ExeBUs after.

    // --- Memory system. ---
    DramRead,       ///< Line fill. a=line addr, b=bytes, x=ready cycle.
    DramWrite,      ///< Writeback. a=line addr, b=bytes.

    // --- OS batch scheduling (Section 5). ---
    BatchDispatch,  ///< Queued workload placed. a=name id, b=queue idx.

    // --- Simulation engine (not simulated hardware). ---
    SchedFastForward, ///< The whole machine skipped a quiescent span
                      ///< after a tick window's last cycle (an engine's
                      ///< own skips inside a window emit none). The
                      ///< event's cycle is the decision cycle; a=number
                      ///< of skipped cycles, b=wake source
                      ///< (occamy::WakeSource numeric value).

    // --- Fault injection & degradation (src/fault). Appended after
    // --- SchedFastForward to keep the binary trace format stable. ---
    FaultInject,    ///< A fault became active. core=target (owner for
                    ///< lane faults, kNoCore for machine-wide windows),
                    ///< a=FaultKind numeric value, b=kind-specific
                    ///< detail (lane: unit index; dram: extra latency;
                    ///< cfgdelay: delay cycles; vldeny: window length,
                    ///< 0 = unbounded).
    FaultRecover,   ///< A transient fault window ended. core=target,
                    ///< a=FaultKind numeric value, b=window start cycle.
    PartitionDegrade, ///< Resource table shrank after a lane fault.
                      ///< a=usable ExeBUs after, b=configured total.
    WatchdogTrip,   ///< Livelock watchdog escalated a spinning core to
                    ///< its scalar fallback. core=victim, a=vl at trip,
                    ///< b=cycles spent spinning.

    // --- Simulation engine, appended for format stability. ---
    SystemBoot,     ///< A System finished boot (cores constructed,
                    ///< programs compiled). Engine category: lets a
                    ///< serve daemon prove a warm-pool request paid no
                    ///< boot cost. a=cores, b=ExeBUs.
    CheckpointSave,    ///< Engine wrote a checkpoint at this cycle.
                       ///< a=serialized bytes.
    CheckpointRestore, ///< Engine restored state at this cycle.

    // --- Multi-tenant traffic (src/traffic). Appended after the
    // --- checkpoint kinds to keep the binary trace format stable. ---
    JobArrival,     ///< A traffic job's effective arrival. a=workload
                    ///< name id, b=(tenant << 32) | queue idx.
    JobAdmit,       ///< Dispatcher picked the job for a core.
                    ///< core=target, a=queue idx, b=queueing delay.
    JobComplete,    ///< The job's workload finished. core=where,
                    ///< a=queue idx, b=completion latency.
    SloViolation,   ///< Completion latency exceeded the SLO budget.
                    ///< core=where, a=queue idx, b=overshoot cycles.

    // --- Inter-cluster arbiter (src/lanemgr, clustered topologies).
    // --- Appended after the traffic kinds to keep the binary trace
    // --- format stable. Never emitted on a 1-cluster machine. ---
    ClusterArbiterPlan, ///< Bandwidth rebalance published. a=rebalance
                        ///< ordinal, b=cluster count, x=smallest and
                        ///< y=largest granted share (bytes/cycle).
    ClusterArbiterMigrate, ///< Queued workload adopted across
                           ///< clusters. core=adopting core (global
                           ///< id), a=queue idx, b=(home cluster
                           ///< << 32) | adopting cluster.

    // --- Admission control & overload (src/traffic/admission).
    // --- Appended after the arbiter kinds to keep the binary trace
    // --- format stable. Never emitted unless an admission policy is
    // --- installed, so admission-off traces are unaffected. ---
    JobDefer,       ///< Admission deferred a candidate. a=queue idx,
                    ///< b=backoff cycles until re-evaluation.
    JobShed,        ///< Admission rejected a candidate permanently.
                    ///< a=queue idx, b=(tenant << 32) | defer count.
    OverloadEnter,  ///< Overload detector tripped (hysteresis).
                    ///< a=ready backlog depth, b=p95 queueing delay.
    OverloadExit,   ///< Backlog drained below the exit threshold.
                    ///< a=ready backlog depth, b=p95 queueing delay.
};

/** Coarse category bits used to subset recording. */
using EventMask = std::uint32_t;

inline constexpr EventMask kEvPhase = 1u << 0;
inline constexpr EventMask kEvPipeline = 1u << 1;
inline constexpr EventMask kEvPartition = 1u << 2;
inline constexpr EventMask kEvReconfig = 1u << 3;
inline constexpr EventMask kEvMem = 1u << 4;
inline constexpr EventMask kEvSched = 1u << 5;
/** Engine events describe what the *simulator* did (e.g. fast-forward
 *  skips), not what the simulated hardware did. They are deliberately
 *  excluded from kEvAll so "all" traces stay invariant under engine
 *  settings like RunOptions::fastForward; opt in with the "engine"
 *  category token. */
inline constexpr EventMask kEvEngine = 1u << 6;
/** Fault injection / degradation / watchdog events. Included in kEvAll:
 *  they describe simulated-hardware behavior, and no fault event is ever
 *  emitted unless a FaultPlan or watchdog is configured, so fault-free
 *  traces are unaffected. */
inline constexpr EventMask kEvFault = 1u << 7;
/** Multi-tenant traffic lifecycle events. Included in kEvAll for the
 *  same reason kEvFault is: no Job* event is ever emitted unless
 *  traffic arrivals are enqueued, so traffic-free traces are
 *  unaffected. */
inline constexpr EventMask kEvTraffic = 1u << 8;
/** Inter-cluster arbiter events (level-2 lane manager). Included in
 *  kEvAll like kEvFault/kEvTraffic: a 1-cluster machine never emits
 *  them, so flat-machine traces are unaffected. */
inline constexpr EventMask kEvCluster = 1u << 9;
inline constexpr EventMask kEvAll =
    kEvPhase | kEvPipeline | kEvPartition | kEvReconfig | kEvMem |
    kEvSched | kEvFault | kEvTraffic | kEvCluster;

/**
 * @return true if @p k's `a` payload is a string-table id. A sink that
 * re-buffers events across string tables (obs::BufferSink) must remap
 * exactly these payloads when it forwards.
 */
constexpr bool
kindHasStringPayload(EventKind k)
{
    switch (k) {
      case EventKind::PhaseBegin:
      case EventKind::PhaseEnd:
      case EventKind::BatchDispatch:
      case EventKind::JobArrival:
        return true;
      default:
        return false;
    }
}

/** @return the category bit of @p k. */
constexpr EventMask
categoryOf(EventKind k)
{
    switch (k) {
      case EventKind::PhaseBegin:
      case EventKind::PhaseEnd:
        return kEvPhase;
      case EventKind::Dispatch:
      case EventKind::Issue:
      case EventKind::Retire:
      case EventKind::RenameStall:
        return kEvPipeline;
      case EventKind::OiUpdate:
      case EventKind::RooflineEval:
      case EventKind::PartitionDecision:
      case EventKind::PartitionPlan:
        return kEvPartition;
      case EventKind::VlRequest:
      case EventKind::VlResolve:
      case EventKind::VlApply:
        return kEvReconfig;
      case EventKind::DramRead:
      case EventKind::DramWrite:
        return kEvMem;
      case EventKind::BatchDispatch:
        return kEvSched;
      case EventKind::SchedFastForward:
      case EventKind::SystemBoot:
      case EventKind::CheckpointSave:
      case EventKind::CheckpointRestore:
        return kEvEngine;
      case EventKind::FaultInject:
      case EventKind::FaultRecover:
      case EventKind::PartitionDegrade:
      case EventKind::WatchdogTrip:
        return kEvFault;
      case EventKind::JobArrival:
      case EventKind::JobAdmit:
      case EventKind::JobComplete:
      case EventKind::SloViolation:
      case EventKind::JobDefer:
      case EventKind::JobShed:
      case EventKind::OverloadEnter:
      case EventKind::OverloadExit:
        return kEvTraffic;
      case EventKind::ClusterArbiterPlan:
      case EventKind::ClusterArbiterMigrate:
        return kEvCluster;
    }
    return 0;
}

/** @return a stable lower-case name for @p k (trace export, tests). */
const char *eventKindName(EventKind k);

/**
 * Parse a comma-separated category list ("phase,partition,reconfig",
 * "all", "pipeline,mem,sched", "all,engine") into a mask. Unknown
 * tokens are ignored; an empty string yields 0 (tracing off). "all"
 * covers every simulated-hardware category but not "engine" (see
 * kEvEngine).
 */
EventMask parseEventMask(const std::string &spec);

/** One structured trace record. */
struct Event
{
    Cycle cycle = 0;
    EventKind kind = EventKind::PhaseBegin;
    CoreId core = kNoCore;      ///< kNoCore for machine-wide events.
    std::uint64_t a = 0;        ///< Payload, meaning per EventKind.
    std::uint64_t b = 0;
    double x = 0.0;
    double y = 0.0;

    bool operator==(const Event &) const = default;
};

/**
 * One periodic dump of a component stats::Group, keyed by cycle.
 * Values are "<group>.<stat>" named, in the group's deterministic
 * (sorted) registration order.
 */
struct MetricSnapshot
{
    Cycle cycle = 0;
    std::vector<std::pair<std::string, double>> values;
};

} // namespace occamy::obs

#endif // OCCAMY_OBS_EVENTS_HH
