/**
 * @file
 * The coordinator's wake-candidate table.
 *
 * Besides the cluster engines' own quiescence probes (which each engine
 * evaluates for itself inside a tick window, see sim/cluster_engine.hh),
 * a handful of machine-level events can end a quiescent stretch: the
 * arbiter's rebalance boundary, per-core dispatch deadlines, the
 * snapshot boundary, fault-plan boundaries, watchdog deadlines and the
 * traffic session's arrival and admission wakes. Each is registered
 * once at boot (Coordinator::registerWakes), only when its feature is
 * configured, and serves two purposes:
 *
 *  - evaluate(at) is the machine-level tier of the fast-forward wake:
 *    the earliest candidate after cycle @p at, ties keeping the first
 *    registration, so the WakeSource attribution recorded in
 *    SchedFastForward events is stable;
 *  - horizon(now) bounds a tick window starting at @p now: a pre-tick
 *    candidate (acting at the top of its cycle) ends the window before
 *    its cycle, a post-tick candidate (acting after the engines ticked
 *    it) ends the window with its cycle.
 *
 * Probes may be conservative (wake early) but never late; kCycleNever
 * means "no candidate now".
 */

#ifndef OCCAMY_SIM_WAKE_TABLE_HH
#define OCCAMY_SIM_WAKE_TABLE_HH

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/system.hh"

namespace occamy
{

/** Registration-order candidate table. */
class WakeTable
{
  public:
    /** Register @p probe: at -> earliest candidate cycle > at.
     *  @p pre_tick marks actions taken before the engines tick. */
    void add(WakeSource source, bool pre_tick,
             std::function<Cycle(Cycle)> probe)
    {
        cands_.push_back(Candidate{std::move(probe), source, pre_tick});
    }

    /** @return the earliest candidate after @p at and its source (the
     *  cap pair {kCycleNever, Cap} when nothing is pending). */
    std::pair<Cycle, WakeSource> evaluate(Cycle at) const
    {
        Cycle wake = kCycleNever;
        WakeSource why = WakeSource::Cap;
        for (const Candidate &c : cands_) {
            const Cycle w = c.probe(at);
            if (w < wake) {
                wake = w;
                why = c.source;
            }
        }
        return {wake, why};
    }

    /** End (exclusive) of the longest window starting at @p now >= 1
     *  that no candidate acts inside of. */
    Cycle horizon(Cycle now) const
    {
        Cycle h = kCycleNever;
        for (const Candidate &c : cands_) {
            const Cycle w = c.probe(c.preTick ? now : now - 1);
            if (w != kCycleNever)
                h = std::min(h, c.preTick ? w : std::max(w, now) + 1);
        }
        return h;
    }

  private:
    struct Candidate
    {
        std::function<Cycle(Cycle)> probe;
        WakeSource source;
        bool preTick;
    };

    std::vector<Candidate> cands_;
};

} // namespace occamy

#endif // OCCAMY_SIM_WAKE_TABLE_HH
