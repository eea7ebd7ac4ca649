/**
 * @file
 * Policy-aware admission control for multi-tenant traffic (ROADMAP
 * item 4 follow-on to PR 7's dispatch disciplines).
 *
 * An AdmissionPolicy decides, each time the simulator would consider a
 * newly arrived job for dispatch, whether that job may *enter the
 * dispatchable pool* at all:
 *
 *  - Admit: the job becomes visible to the Dispatcher from this cycle
 *    on. Admission is a one-time latch — once admitted, a job is never
 *    re-evaluated (tokens are consumed at admission, not at dispatch).
 *  - Defer: the job stays queued but invisible to the Dispatcher until
 *    a deterministic exponential backoff expires (admissionBackoff),
 *    then is re-evaluated. A core whose every candidate is deferred
 *    stays idle until a job is admitted, and no job is ever lost.
 *  - Shed: the job is rejected permanently. It is counted, its
 *    closed-loop dependents are released exactly as completion would
 *    release them (the simulated client keeps going after a
 *    rejection), and it never occupies a core.
 *
 * Policies are stateless singletons: every mutable quantity a decision
 * needs (token balances, in-flight counts, service-time EMAs, the
 * overload flag) is owned by the traffic::Session and passed in through
 * AdmissionContext. That keeps the registry shape identical to the
 * PR-4 sharing-model and PR-7 dispatcher registries, and keeps
 * decisions pure functions — same context, same verdict — which is
 * what makes checkpoint/restore equivalence hold mid-overload.
 *
 * Determinism contract: admission decisions happen only in the
 * Session's admission pass (arrival instants and backoff expiries),
 * use only simulated state, and never read the host clock or a PRNG, so a sweep
 * with admission enabled is byte-identical across runner thread counts
 * and fast-forward settings — and with the default "none" policy, the
 * whole layer is absent from checkpoints, fingerprints and exports.
 */

#ifndef OCCAMY_TRAFFIC_ADMISSION_HH
#define OCCAMY_TRAFFIC_ADMISSION_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace occamy::traffic
{

/** Verdict for one job at one evaluation point. */
enum class AdmissionDecision
{
    Admit,      ///< Enter the dispatchable pool now (latched).
    Defer,      ///< Retry after deterministic backoff; never lost.
    Shed,       ///< Reject permanently; counted, never dispatched.
};

/** @return a stable lower-case name ("admit"/"defer"/"shed"). */
const char *admissionDecisionName(AdmissionDecision d);

/**
 * Everything a policy may consult for one decision. All simulated
 * state; populated by the traffic::Session at evaluation time.
 */
struct AdmissionContext
{
    Cycle now = 0;              ///< Current simulated cycle.
    unsigned tenant = 0;        ///< Owning tenant of the candidate.
    Cycle deadline = kCycleNever;   ///< Absolute SLO deadline
                                    ///< (effective arrival + budget),
                                    ///< kCycleNever when no SLO.
    Cycle sloBudget = kCycleNever;  ///< Relative budget, kCycleNever
                                    ///< when no SLO.
    Cycle estCost = 0;          ///< Static service estimate (cycles).
    std::size_t readyJobs = 0;  ///< Arrived, not yet dispatched/shed
                                ///< (machine-wide backlog depth).
    unsigned inFlight = 0;      ///< Tenant's admitted-but-unfinished
                                ///< job count.
    std::uint64_t tokens = 0;   ///< Tenant's current token balance
                                ///< (token-bucket bookkeeping).
    bool overloaded = false;    ///< Overload detector state (see
                                ///< DESIGN.md §16 hysteresis).
    Cycle classServiceEma = 0;  ///< EMA of observed service cycles for
                                ///< this job's workload class; 0 until
                                ///< a first completion of the class.
    Cycle meanServiceEma = 0;   ///< EMA across all classes; 0 until
                                ///< any completion.
    unsigned cores = 1;         ///< Cores draining the queue.
    unsigned deferCount = 0;    ///< Times this job was already
                                ///< deferred.
    unsigned cap = 0;           ///< Policy knob (--admission-cap):
                                ///< per-tenant in-flight bound or
                                ///< token-bucket capacity.
};

/**
 * One admission discipline. Stateless; registered once; looked up by
 * key. Same immortal-singleton ownership as the Dispatcher registry.
 */
class AdmissionPolicy
{
  public:
    AdmissionPolicy(std::string key, std::string summary)
        : key_(std::move(key)), summary_(std::move(summary))
    {
    }
    virtual ~AdmissionPolicy() = default;

    /** Registry key, e.g. "token-bucket". */
    const std::string &key() const { return key_; }

    /** One-line human description for --list-admission. */
    const std::string &summary() const { return summary_; }

    /** True if the Session must maintain per-tenant token balances
     *  (deterministic lazy refill) for this policy. */
    virtual bool wantsTokens() const { return false; }

    /** Decide the candidate's fate. Pure: no side effects, no host
     *  state. The Session applies the verdict (latching, backoff
     *  scheduling, shed bookkeeping, token consumption). */
    virtual AdmissionDecision decide(const AdmissionContext &ctx)
        const = 0;

  private:
    std::string key_;
    std::string summary_;
};

/** Every registered policy, stable registration order. */
const std::vector<const AdmissionPolicy *> &allAdmissionPolicies();

/** @return the policy registered under @p name, or nullptr. */
const AdmissionPolicy *admissionByName(std::string_view name);

/**
 * Deterministic exponential backoff for the n-th deferral of a job:
 * 64 << n cycles, saturating at 65536. Pure function of the per-job
 * defer count, so the retry schedule survives checkpoint/restore and
 * is identical under fast-forward.
 */
Cycle admissionBackoff(unsigned defer_count);

} // namespace occamy::traffic

#endif // OCCAMY_TRAFFIC_ADMISSION_HH
