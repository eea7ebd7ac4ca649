/**
 * @file
 * Parallel experiment runner: fans independent `System` simulations out
 * across worker threads with deterministic result ordering and per-job
 * fault containment.
 *
 * A sweep is a vector of JobSpec; Runner::run() executes them on N
 * threads and returns a SweepResult whose jobs are ordered by spec
 * position regardless of completion order, so a sweep's output (and any
 * JSON/CSV rendered from it) is bit-identical whether it ran on 1
 * thread or 16. A job that throws, is infeasible, or hits its cycle cap
 * is marked Failed with a captured diagnostic; the rest of the sweep
 * still completes.
 *
 * Concurrency contract: each job constructs its own `System` (and with
 * it every component, stats group and `MachineConfig` copy) on the
 * worker thread that executes it, so jobs share no mutable state — see
 * the contract block in common/stats.hh.
 */

#ifndef OCCAMY_RUNNER_RUNNER_HH
#define OCCAMY_RUNNER_RUNNER_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "obs/sink.hh"
#include "sim/system.hh"

namespace occamy::runner
{

/** One named workload slot: {workload name, kernel loops}. */
using WorkloadSlot = std::pair<std::string, std::vector<kir::Loop>>;

/** Everything needed to run one independent simulation. */
struct JobSpec
{
    /** Dense position in the sweep; results come back in this order.
     *  Builders (pairSweepJobs, Runner callers) assign it = index. */
    std::size_t id = 0;

    /** Human-readable label, e.g. "6+16/Occamy". */
    std::string label;

    /** Full machine configuration (policy included). Copied per job:
     *  a running System never shares its config with another job. */
    MachineConfig cfg;

    /** Per-core workloads, indexed by core id. Fewer entries than
     *  cores leaves the remaining cores idle; more entries than cores
     *  is infeasible and fails the job (contained, not fatal). */
    std::vector<WorkloadSlot> workloads;

    /** FCFS/OI-aware batch queue entries (Section 5 co-scheduling). */
    std::vector<WorkloadSlot> batch;

    /** Simulation cycle cap; exceeding it fails the job. */
    Cycle maxCycles = 40'000'000;

    /** Timeline bucket size in cycles (System::run's bucket). */
    unsigned bucket = 1000;

    /** Reserved for stochastic workloads/configs. The simulator is
     *  fully deterministic today, so the seed only tags the result. */
    std::uint64_t seed = 0;

    /** Event categories to trace (obs::parseEventMask). When nonzero,
     *  the job gets a private RingSink built on its worker thread and
     *  the captured TraceBuffer comes back in JobResult::trace — the
     *  simulator is deterministic, so the buffer is byte-identical
     *  regardless of runner thread count. 0 (default) disables
     *  tracing entirely. */
    obs::EventMask traceEvents = 0;

    /** Ring capacity (events) for the per-job sink. */
    std::size_t traceCapacity = 1u << 20;

    /** Metric-snapshot period (RunOptions::snapshotEvery; 0 = never). */
    Cycle snapshotEvery = 0;

    /** Skip quiescent spans of the cycle loop (RunOptions::fastForward;
     *  results are identical either way). */
    bool fastForward = true;

    /** Fault plan in fault::FaultPlan::parse grammar, e.g.
     *  "lane@50000:bu=3;vldeny@10000+5000:core=0". Parsed on the worker
     *  thread, so a malformed plan is a contained per-job failure.
     *  Empty (default) = no textual plan. */
    std::string faultPlan;

    /** When faultPlan is empty and this is nonzero, the job runs under
     *  the seeded random plan fault::FaultPlan::random(faultSeed, cfg)
     *  — same seed, same plan, same result. 0 = fault-free. */
    std::uint64_t faultSeed = 0;

    /** Livelock watchdog threshold (RunOptions::watchdogCycles);
     *  0 = watchdog off. */
    Cycle watchdogCycles = 0;

    /** Hard per-job wall-clock kill in seconds
     *  (RunOptions::wallClockLimitSec); 0 = off. A killed job is
     *  Failed, never retried (the next attempt would die the same
     *  way), and keeps its partial trace. */
    double wallClockLimitSec = 0.0;

    /** Periodic checkpointing (RunOptions::checkpointOut/-Every): every
     *  checkpointEvery cycles the job overwrites checkpointOut with its
     *  latest snapshot. Both must be set to take effect. */
    std::string checkpointOut;
    Cycle checkpointEvery = 0;

    /** Worker threads for the job's own cycle loop
     *  (RunOptions::simThreads): clustered machines tick their
     *  ClusterEngines in parallel between deterministic horizons, so
     *  results are byte-identical for any value. <= 1 (and every flat
     *  machine) keeps the classic serial loop. Composes with the
     *  runner's own job-level threads — total concurrency is roughly
     *  jobs x simThreads. */
    unsigned simThreads = 1;

    /** Resume from this checkpoint file instead of starting at cycle 0
     *  (System::restoreCheckpoint). The spec must carry the same
     *  config, workloads and determinism-relevant options as the run
     *  that wrote it; a mismatch is a contained per-job failure. */
    std::string restoreFrom;

    /** Multi-tenant traffic (src/traffic): when traffic.enabled(), the
     *  worker expands the config into a deterministic arrival stream
     *  (traffic::generate), enqueues it instead of `batch`, and selects
     *  the traffic.scheduler dispatch discipline. Generation and
     *  registry lookups happen on the worker thread, so a bad process
     *  or scheduler name is a contained per-job failure. */
    traffic::TrafficConfig traffic;
};

/**
 * One JobSpec made live: the boot path every front end shares.
 * Runner::runOne drives a Job to completion; occamy-serve pools,
 * steps, checkpoints and restores one. A Job owns its System and
 * everything the System's RunOptions borrow (the trace sink, the
 * fault plan and the fast-forward stats), so it is never copied or
 * moved.
 */
class Job
{
  public:
    /**
     * Set @p spec up without executing a cycle: build the System, bind
     * the workloads, queue the batch or expand the traffic stream,
     * install its dispatcher and admission policy, derive the
     * RunOptions and parse the fault plan. Throws on a bad spec
     * (unknown scheduler or admission name, more workloads than cores,
     * a malformed fault plan, ...). Nothing is traced before boot(),
     * so a throw here loses no trace.
     */
    explicit Job(const JobSpec &spec);

    Job(const Job &) = delete;
    Job &operator=(const Job &) = delete;

    /** Boot at cycle 0, or resume from the checkpoint stream @p ckpt
     *  when it is non-null (System::restoreCheckpoint). */
    void boot(std::istream *ckpt = nullptr);

    System &sys() { return sys_; }
    const System &sys() const { return sys_; }

    /** The job's trace ring; null when JobSpec::traceEvents is 0. */
    obs::RingSink *sink() { return sink_.get(); }

    /** Fast-forward accounting, written by System::finalize. */
    const FastForwardStats &ff() const { return ff_; }

    bool hasTraffic() const { return has_traffic_; }
    bool hasAdmission() const { return has_admission_; }

  private:
    std::unique_ptr<obs::RingSink> sink_;
    fault::FaultPlan plan_;
    FastForwardStats ff_;
    RunOptions opt_;
    System sys_;
    bool has_traffic_ = false;
    bool has_admission_ = false;
};

/** Terminal state of one job. */
enum class JobStatus
{
    Ok,         ///< Ran to completion of all workloads.
    Failed,     ///< Threw, was infeasible, or hit the cycle cap.
};

/** @return "ok" / "failed". */
const char *jobStatusName(JobStatus s);

/** Outcome of one job. */
struct JobResult
{
    std::size_t id = 0;
    std::string label;
    SharingPolicy policy = SharingPolicy::Elastic;
    JobStatus status = JobStatus::Ok;

    /** Diagnostic when Failed (exception text or timeout note). */
    std::string error;

    /** Simulation result. On a cycle-cap failure this holds the
     *  partial state at the cap; on an exception it is empty. */
    RunResult result;

    /** Captured event trace (empty unless JobSpec::traceEvents != 0).
     *  Failed and timed-out jobs keep whatever the ring captured up to
     *  the failure point — the partial trace is often the only
     *  diagnostic a hung or faulted run leaves behind. */
    obs::TraceBuffer trace;

    /** Wall-clock spent simulating, for operator feedback only. Never
     *  exported to JSON/CSV: it would break run-to-run determinism. */
    double wallMs = 0.0;

    /** Fast-forward accounting of the run (cycles simulated vs.
     *  ticked). Deterministic, unlike wallMs: it depends only on the
     *  job, so exporting it keeps sweeps byte-identical across thread
     *  counts. */
    FastForwardStats ff;

    /** SLO metrics aggregated from RunResult::trafficJobs (only
     *  meaningful when hasTraffic; deterministic like everything else
     *  exported). */
    bool hasTraffic = false;
    unsigned trafficTenants = 0;
    traffic::TrafficMetrics trafficMetrics;

    /** True when the job ran with an admission policy installed;
     *  gates the shed/defer/goodput export fields so admission-off
     *  sweeps stay byte-identical. */
    bool hasAdmission = false;

    /** Transient-retry accounting: attempts actually retried (0 on a
     *  clean first attempt) and the configured budget
     *  (RunnerOptions::transientRetries). Exported only when a budget
     *  was configured — retry counts reflect host conditions, not
     *  simulated state, so default sweeps must not carry the field. */
    unsigned retriesUsed = 0;
    unsigned retryBudget = 0;

    bool ok() const { return status == JobStatus::Ok; }
};

/** A completed sweep, ordered by JobSpec::id. */
struct SweepResult
{
    std::vector<JobResult> jobs;

    std::size_t failed() const;
    bool allOk() const { return failed() == 0; }
};

/** Live progress snapshot passed to RunnerOptions::onProgress. */
struct Progress
{
    std::size_t total = 0;
    std::size_t done = 0;       ///< Finished (ok or failed).
    std::size_t running = 0;    ///< Currently executing.
    std::size_t failed = 0;
    double elapsedSec = 0.0;
    double etaSec = 0.0;        ///< Naive remaining-time estimate.
};

/** Runner configuration. */
struct RunnerOptions
{
    /** Worker threads; 0 means defaultJobs(). */
    unsigned numThreads = 0;

    /** Invoked ~2x/second from the coordinating thread while the sweep
     *  runs, and once after the last job. Leave empty for silence. */
    std::function<void(const Progress &)> onProgress;

    /** Extra attempts for jobs that fail transiently (std::bad_alloc,
     *  std::system_error — host conditions, not simulator bugs), with
     *  10 ms * 2^attempt backoff before each retry. Deterministic
     *  failures (sim exceptions, cycle cap, wall-clock kill) are never
     *  retried. 0 (default) = single attempt. */
    unsigned transientRetries = 0;
};

/**
 * Default worker-thread count: the OCCAMY_JOBS environment variable if
 * set and positive, else std::thread::hardware_concurrency(), else 1.
 */
unsigned defaultJobs();

/** Stock onProgress callback: one-line live status on stderr. */
std::function<void(const Progress &)> stderrProgress();

/** Thread-pool executor for sweeps of independent simulations. */
class Runner
{
  public:
    explicit Runner(RunnerOptions opt = {}) : opt_(std::move(opt)) {}

    /**
     * Execute every job and return results ordered by spec position.
     * Never throws for job-level failures; those come back as
     * JobStatus::Failed entries.
     */
    SweepResult run(std::vector<JobSpec> jobs) const;

    /** Convenience: run one job with fault containment, inline.
     *  @p transient_retries follows RunnerOptions::transientRetries. */
    static JobResult runOne(const JobSpec &spec,
                            unsigned transient_retries = 0);

  private:
    RunnerOptions opt_;
};

} // namespace occamy::runner

#endif // OCCAMY_RUNNER_RUNNER_HH
