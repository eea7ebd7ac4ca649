/**
 * @file
 * The admission/dispatch strategy layer for the batch queue: when a
 * core goes idle, a Dispatcher picks which *arrived* queued job it
 * takes next. One immutable object per discipline, name-keyed in a
 * registry mirroring src/policy — FCFS, shortest-job-first, deadline-
 * aware EDF, and the existing OI-aware co-placement (which scores
 * candidates with the roofline partitioner via a callback, so this
 * layer never depends on src/sim).
 */

#ifndef OCCAMY_TRAFFIC_SCHEDULER_HH
#define OCCAMY_TRAFFIC_SCHEDULER_HH

#include <functional>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace occamy::traffic
{

/** One arrived-but-undispatched queue entry, as a dispatcher sees it. */
struct PendingJob
{
    std::size_t queueIdx = 0;   ///< Position in the batch queue.
    Cycle arrived = 0;          ///< Effective arrival cycle.
    unsigned tenant = 0;
    Cycle deadline = kCycleNever;   ///< Absolute; kCycleNever = none.
    double estCost = 0.0;       ///< SJF service-demand estimate.
};

/** Everything a dispatch decision may consult. */
struct DispatchContext
{
    Cycle now = 0;
    CoreId core = 0;            ///< The idle core asking for work.

    /** Arrived, undispatched jobs in queue order. Never empty. */
    const std::vector<PendingJob> &pending;

    /**
     * Roofline-estimated normalized machine progress if pending[i]
     * joins `core` alongside what the other cores are running (the
     * OI-aware co-placement score). Null when the simulator has no
     * OI precomputation for the queue.
     */
    std::function<double(std::size_t)> progressScore;
};

/** Strategy interface for one dispatch discipline. */
class Dispatcher
{
  public:
    Dispatcher(const char *key, const char *summary)
        : key_(key), summary_(summary)
    {
    }

    virtual ~Dispatcher() = default;

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /** Canonical registry key, e.g. "edf" (lowercase, stable). */
    const char *key() const { return key_; }

    /** One-line description for --list-schedulers output. */
    const char *summary() const { return summary_; }

    /** True if the simulator should precompute first-phase OI for
     *  every queued job (feeds DispatchContext::progressScore). */
    virtual bool wantsOiScore() const { return false; }

    /**
     * Pick an index INTO ctx.pending: a discipline always dispatches
     * (work-conserving). Holding a job back is admission's call
     * (traffic/admission.hh), made before it reaches ctx.pending.
     */
    virtual std::size_t select(const DispatchContext &ctx) const = 0;

  private:
    const char *key_;
    const char *summary_;
};

/** Every registered dispatcher, in presentation order. */
const std::vector<const Dispatcher *> &allDispatchers();

/** @return the dispatcher registered under @p name, or null. */
const Dispatcher *dispatcherByName(std::string_view name);

} // namespace occamy::traffic

#endif // OCCAMY_TRAFFIC_SCHEDULER_HH
