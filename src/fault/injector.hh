/**
 * @file
 * Runtime delivery of a FaultPlan.
 *
 * The FaultInjector is the single stateful object a simulation consults
 * about faults. Components query it with pure-function predicates
 * (vlDenied, dramExtraLatency, ...) keyed only on (target, cycle), so
 * results are independent of tick order and identical between ticked and
 * fast-forwarded runs. The one piece of consumable state — pending ExeBU
 * hard faults — is drained exactly once via takeDueLaneFaults().
 *
 * Fast-forward contract: every cycle at which any injector answer
 * changes (a lane fault fires, a window opens or closes) is reported by
 * nextEventAt(), so the quiescence engine never skips a fault boundary.
 */

#ifndef OCCAMY_FAULT_INJECTOR_HH
#define OCCAMY_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "ckpt/fwd.hh"
#include "common/types.hh"
#include "fault/fault.hh"

namespace occamy::obs
{
class EventSink;
}

namespace occamy::fault
{

class FaultInjector
{
  public:
    /**
     * @param plan The plan to deliver (copied; lane faults aimed at
     *        units >= @p num_exebus are dropped as unmappable).
     * @param num_exebus ExeBU count of the machine under test.
     */
    FaultInjector(const FaultPlan &plan, unsigned num_exebus);

    /**
     * ExeBU hard faults whose trigger cycle has arrived, each returned
     * exactly once, ordered by (trigger cycle, unit). The co-processor
     * calls this at the top of every tick and retires the units.
     */
    std::vector<unsigned> takeDueLaneFaults(Cycle now);

    /** @return true if <VL> requests from @p core are denied at @p now. */
    bool vlDenied(CoreId core, Cycle now) const;

    /** Extra DRAM latency cycles active at @p now (0 = nominal). */
    unsigned dramExtraLatency(Cycle now) const;

    /** DRAM bandwidth divisor active at @p now (1 = nominal). */
    unsigned dramBandwidthDivisor(Cycle now) const;

    /** Added reconfiguration stall for @p core at @p now (0 = none). */
    Cycle reconfigExtraDelay(CoreId core, Cycle now) const;

    /**
     * Next cycle > @p now at which any injector answer changes: a
     * pending lane fault fires, or a transient window opens or closes.
     * kCycleNever once the plan is exhausted.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Emit FaultInject/FaultRecover obs events for transient windows
     * that started (ended) at or before @p now, each exactly once.
     * Lane-fault FaultInject events are emitted by the co-processor at
     * apply time instead (it knows the evicted owner).
     */
    void emitBoundaryEvents(Cycle now, obs::EventSink *sink);

    /** Checkpoint hooks: only the consumable flags (fired lane faults,
     *  emitted window boundaries) — the plan itself is reconstructed
     *  from the run options and cross-checked by the fingerprint. */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

  private:
    template <class Self, class Ar> static void io(Self &s, Ar &ar);

    struct LaneEvent
    {
        Cycle at;
        unsigned unit;
        bool fired = false;
    };

    /** A [at, at+duration) transient window; duration 0 = unbounded. */
    struct Window
    {
        FaultSpec spec;
        bool beginEmitted = false;
        bool endEmitted = false;

        bool activeAt(Cycle now) const
        {
            if (now < spec.at)
                return false;
            return spec.duration == 0 || now < spec.at + spec.duration;
        }
    };

    std::vector<LaneEvent> lane_events_;   // sorted by (at, unit)
    std::vector<Window> windows_;          // plan order
};

} // namespace occamy::fault

#endif // OCCAMY_FAULT_INJECTOR_HH
