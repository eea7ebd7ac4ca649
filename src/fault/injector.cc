#include "fault/injector.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"
#include "obs/sink.hh"

namespace occamy::fault
{

FaultInjector::FaultInjector(const FaultPlan &plan, unsigned num_exebus)
{
    for (const FaultSpec &s : plan.faults) {
        if (s.kind == FaultKind::LaneFault) {
            if (s.unit < num_exebus)
                lane_events_.push_back({s.at, s.unit, false});
        } else {
            windows_.push_back({s, false, false});
        }
    }
    std::sort(lane_events_.begin(), lane_events_.end(),
              [](const LaneEvent &a, const LaneEvent &b) {
                  return a.at != b.at ? a.at < b.at : a.unit < b.unit;
              });
}

std::vector<unsigned>
FaultInjector::takeDueLaneFaults(Cycle now)
{
    std::vector<unsigned> due;
    for (LaneEvent &e : lane_events_) {
        if (e.at > now)
            break;
        if (!e.fired) {
            e.fired = true;
            due.push_back(e.unit);
        }
    }
    return due;
}

bool
FaultInjector::vlDenied(CoreId core, Cycle now) const
{
    for (const Window &w : windows_) {
        if (w.spec.kind != FaultKind::VlDenial || !w.activeAt(now))
            continue;
        if (w.spec.core == kNoCore || w.spec.core == core)
            return true;
    }
    return false;
}

unsigned
FaultInjector::dramExtraLatency(Cycle now) const
{
    unsigned extra = 0;
    for (const Window &w : windows_)
        if (w.spec.kind == FaultKind::DramSpike && w.activeAt(now))
            extra += w.spec.extraLatency;
    return extra;
}

unsigned
FaultInjector::dramBandwidthDivisor(Cycle now) const
{
    unsigned div = 1;
    for (const Window &w : windows_)
        if (w.spec.kind == FaultKind::DramSpike && w.activeAt(now))
            div = std::max(div, w.spec.bwDivisor);
    return div;
}

Cycle
FaultInjector::reconfigExtraDelay(CoreId core, Cycle now) const
{
    Cycle delay = 0;
    for (const Window &w : windows_) {
        if (w.spec.kind != FaultKind::ReconfigDelay || !w.activeAt(now))
            continue;
        if (w.spec.core == kNoCore || w.spec.core == core)
            delay = std::max(delay, w.spec.delayCycles);
    }
    return delay;
}

Cycle
FaultInjector::nextEventAt(Cycle now) const
{
    Cycle next = kCycleNever;
    auto consider = [&next, now](Cycle c) {
        if (c > now && c < next)
            next = c;
    };
    for (const LaneEvent &e : lane_events_) {
        if (!e.fired)
            consider(std::max(e.at, now + 1));
    }
    for (const Window &w : windows_) {
        consider(w.spec.at);
        if (w.spec.duration != 0)
            consider(w.spec.at + w.spec.duration);
    }
    return next;
}

void
FaultInjector::emitBoundaryEvents(Cycle now, obs::EventSink *sink)
{
    if (!sink)
        return;
    for (Window &w : windows_) {
        if (!w.beginEmitted && now >= w.spec.at) {
            w.beginEmitted = true;
            std::uint64_t detail = 0;
            switch (w.spec.kind) {
              case FaultKind::VlDenial:
                detail = w.spec.duration;
                break;
              case FaultKind::DramSpike:
                detail = w.spec.extraLatency;
                break;
              case FaultKind::ReconfigDelay:
                detail = w.spec.delayCycles;
                break;
              case FaultKind::LaneFault:
                break;  // not a window
            }
            obs::emit(sink, obs::EventKind::FaultInject, w.spec.at,
                      w.spec.core, static_cast<std::uint64_t>(w.spec.kind),
                      detail);
        }
        if (!w.endEmitted && w.spec.duration != 0 &&
            now >= w.spec.at + w.spec.duration) {
            w.endEmitted = true;
            obs::emit(sink, obs::EventKind::FaultRecover,
                      w.spec.at + w.spec.duration, w.spec.core,
                      static_cast<std::uint64_t>(w.spec.kind), w.spec.at);
        }
    }
}

template <class Self, class Ar>
void
FaultInjector::io(Self &s, Ar &ar)
{
    ar.section("injector");
    ar.same(s.lane_events_.size(),
            "checkpoint fault plan mismatch (lane events)");
    for (auto &e : s.lane_events_)
        ar.b(e.fired);
    ar.same(s.windows_.size(), "checkpoint fault plan mismatch (windows)");
    for (auto &win : s.windows_) {
        ar.b(win.beginEmitted);
        ar.b(win.endEmitted);
    }
}

void FaultInjector::save(ckpt::Writer &w) const { io(*this, w); }
void FaultInjector::load(ckpt::Reader &r) { io(*this, r); }

} // namespace occamy::fault
