/**
 * @file
 * The traffic lifecycle of one booted batch queue: effective arrivals
 * (open-loop cycles and closed-loop successor release), admission
 * control (verdicts, token buckets, service EMAs, the overload
 * detector), and the per-job arrive/admit/finish record with its SLO
 * check.
 *
 * The simulator creates a Session only when traffic arrivals were
 * enqueued, and calls it at three points of its cycle loop:
 *
 *  1. admitArrivals() — when due(): arrivals whose cycle has come
 *     become visible, then the admission pass rules on them;
 *  2. pending() / selected() — an idle core asks for the dispatchable
 *     set, and reports the dispatcher's pick;
 *  3. started() / completed() — the picked job's context switch
 *     finished, and later the job itself did.
 *
 * Between those calls the Session is pure simulated state: it owns the
 * "traffic" and "admit" checkpoint sections and the traffic side of
 * the run's exports. It depends on nothing in src/sim.
 */

#ifndef OCCAMY_TRAFFIC_SESSION_HH
#define OCCAMY_TRAFFIC_SESSION_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ckpt/fwd.hh"
#include "common/stats.hh"
#include "obs/sink.hh"
#include "traffic/admission.hh"
#include "traffic/metrics.hh"
#include "traffic/scheduler.hh"
#include "traffic/traffic.hh"

namespace occamy::traffic
{

class Session
{
  public:
    /** Lifecycle of one queue entry. */
    struct Job
    {
        // Static metadata, copied from the entry's Arrival.
        unsigned tenant = 0;
        Cycle sloBudget = kCycleNever;
        Cycle thinkGap = 0;
        double estCost = 0.0;
        std::uint32_t cls = 0;      ///< Index into the class table.
        std::size_t successor = kNoJob;     ///< Closed-loop successor.

        Cycle arrive = kCycleNever; ///< Effective arrival (kCycleNever
                                    ///< until a predecessor resolves it).
        bool arrived = false;       ///< Visible to admission/dispatch.
        Cycle admit = kCycleNever;  ///< Dispatch decision cycle.
        Cycle finish = kCycleNever; ///< Completion cycle.

        // Admission verdict state (untouched without a policy).
        bool latched = false;       ///< Admitted (one-time latch).
        bool shed = false;          ///< Rejected permanently.
        Cycle deferUntil = 0;       ///< Backoff expiry.
        std::uint32_t defers = 0;

        /** True once the job left the queue (picked or shed). */
        bool gone() const { return admit != kCycleNever || shed; }
    };

    /**
     * @p queue is the batch queue's traffic metadata in queue order
     * (Arrival::workload names the class; loops are not read).
     * @p admission may be null (no admission layer); @p cap and
     * @p refillPeriod are its knobs (0 = a 100k-cycle refill period).
     * @p sink (may be null) receives the lifecycle events.
     */
    Session(const std::vector<Arrival> &queue, unsigned cores,
            const AdmissionPolicy *admission, unsigned cap,
            Cycle refillPeriod, obs::EventSink *sink);

    /** An arrival or admission boundary is due at @p now. Inline and
     *  O(1): the simulator asks it on every cycle it looks at. */
    bool
    due(Cycle now) const
    {
        return next_arrival_ <= now || next_admission_ <= now;
    }

    /**
     * Call point 1: make arrivals due at @p now visible, then rule on
     * every visible, unlatched candidate whose backoff expired. A shed
     * entry is marked in @p dispatched. @return entries shed.
     */
    std::size_t admitArrivals(Cycle now, std::vector<bool> &dispatched);

    /** Call point 2: replace @p out with the dispatchable entries
     *  (arrived, admitted, not yet picked) in queue order. */
    void pending(std::vector<PendingJob> &out) const;

    /** Call point 2: the dispatcher picked entry @p q for @p core. */
    void selected(std::size_t q, CoreId core, Cycle now);

    /** Call point 3: @p core's context switch into entry @p q ended. */
    void started(CoreId core, std::size_t q) { core_job_[core] = q; }

    /** Call point 3: @p core went idle at @p now; closes the lifecycle
     *  of the job it ran, if any. */
    void completed(CoreId core, Cycle now);

    /** Fast-forward wake candidates: the next effective arrival, and
     *  the next admission re-evaluation (kCycleNever = none). */
    Cycle
    arrivalWake(Cycle at) const
    {
        return unarrived_ > 0 ? std::max(next_arrival_, at + 1)
                              : kCycleNever;
    }
    Cycle
    admissionWake(Cycle at) const
    {
        return next_admission_ != kCycleNever
                   ? std::max(next_admission_, at + 1)
                   : kCycleNever;
    }
    /** First cycle >= @p from at which due() holds (kCycleNever =
     *  none). The wakes answer for "after from - 1"; from == 0 wraps
     *  to the raw next cycle, which is what cycle 0 needs. */
    Cycle
    firstDue(Cycle from) const
    {
        return std::min(arrivalWake(from - 1), admissionWake(from - 1));
    }

    bool hasAdmission() const { return admission_ != nullptr; }

    /** Overload detector state (always false without admission). */
    bool overloaded() const { return overloaded_; }

    /** Write the "traffic" section, then "admit" with admission. */
    void save(ckpt::Writer &w) const;
    /** Inverse of save(); throws ckpt::Error on a mismatch. */
    void load(ckpt::Reader &r);

    /** One lifecycle record per queue entry, in queue order. */
    std::vector<JobRecord> records() const;

    std::uint64_t sloViolations() const { return slo_violations_; }
    std::uint64_t jobsShed() const { return shed_total_; }
    std::uint64_t jobDeferrals() const { return defer_total_; }
    std::uint64_t overloadEnters() const { return overload_enters_; }

    /** Add the traffic (and admission) counters to @p g. */
    void regStats(stats::Group &g) const;

    /** The traffic lines of the "system" inspect dump. */
    void printState(std::ostream &os) const;

    // Introspection for tests.
    const Job &job(std::size_t q) const { return jobs_[q]; }
    std::size_t readyJobs() const { return ready_; }
    std::uint64_t tokens(unsigned tenant) const
    {
        return tenants_[tenant].tokens;
    }

  private:
    template <class Self, class Ar> static void io(Self &s, Ar &ar);

    struct Tenant
    {
        unsigned inFlight = 0;      ///< Latched, unfinished.
        std::uint64_t tokens = 0;
        Cycle lastRefill = 0;
    };

    void arrivalPass(Cycle now);
    std::size_t admissionPass(Cycle now, std::vector<bool> &dispatched);
    /** Resolve @p q's closed-loop successor's arrival at @p now. */
    void releaseSuccessor(std::size_t q, Cycle now);
    Cycle delayP95() const;
    void updateOverload(Cycle now);

    std::vector<Job> jobs_;
    std::vector<std::string> classes_;  ///< Sorted unique class names.
    std::vector<std::size_t> core_job_; ///< Entry running per core.
    unsigned cores_;
    obs::EventSink *sink_;

    std::size_t unarrived_ = 0;
    Cycle next_arrival_ = kCycleNever;  ///< Min arrive over unarrived.
    std::uint64_t slo_violations_ = 0;

    // Admission control; inert (and never serialized) without a policy.
    const AdmissionPolicy *admission_;
    unsigned cap_;
    Cycle refill_period_ = 0;       ///< Cycles per token; 0 = no tokens.
    std::vector<Tenant> tenants_;
    std::vector<Cycle> class_ema_;  ///< Service EMA per classes_ entry.
    Cycle mean_ema_ = 0;
    /** Ring of the last 32 queueing delays (p95 detector input). */
    std::array<Cycle, 32> delay_ring_{};
    std::uint32_t delay_n_ = 0;     ///< Total delays ever pushed.
    std::size_t ready_ = 0;         ///< Arrived, not picked/shed.
    bool overloaded_ = false;
    std::uint64_t overload_enters_ = 0;
    std::uint64_t shed_total_ = 0;
    std::uint64_t defer_total_ = 0;
    /** Earliest cycle a verdict can change without another wake
     *  (backoff expiry or a fresh arrival); recomputed by every
     *  admission pass, so never stale. */
    Cycle next_admission_ = kCycleNever;
};

} // namespace occamy::traffic

#endif // OCCAMY_TRAFFIC_SESSION_HH
