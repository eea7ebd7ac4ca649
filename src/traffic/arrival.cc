/**
 * @file
 * The four stock arrival processes and their registry. Registration is
 * explicit construction (no static self-registration), matching
 * src/policy/registry.cc: the registry survives the linker dropping
 * unreferenced translation units from the static library.
 */

#include "traffic/arrival.hh"

#include <cmath>
#include <memory>

namespace occamy::traffic
{

double
Rng::expMean(double mean)
{
    return -mean * std::log(u01());
}

namespace
{

/** Clamp a sampled gap to a whole cycle count in [1, kArrivalCap]. */
Cycle
gapCycles(double g)
{
    if (g < 1.0)
        return 1;
    if (!(g < static_cast<double>(kArrivalCap)))
        return kArrivalCap;
    return static_cast<Cycle>(g);
}

/** Memoryless arrivals: exponential gaps at the configured rate. */
class PoissonProcess final : public ArrivalProcess
{
  public:
    PoissonProcess()
        : ArrivalProcess("poisson",
                         "memoryless arrivals, exponential gaps")
    {
    }

    Cycle
    nextGap(StreamState &st, const TrafficConfig &cfg) const override
    {
        return gapCycles(st.rng.expMean(cfg.meanGapCycles));
    }
};

/**
 * Markov-modulated Poisson (MMPP-2): the stream alternates between a
 * burst mode and a slow mode, dwelling a geometric number of arrivals
 * (mean 8) in each. Mode means are chosen so the per-arrival mixture
 * keeps E[gap] == meanGapCycles while the coefficient of variation
 * rises with `burstiness` (CV == 1 for pure Poisson, ~1.5 at the
 * default burstiness of 8).
 */
class BurstyProcess final : public ArrivalProcess
{
  public:
    BurstyProcess()
        : ArrivalProcess("bursty",
                         "Markov-modulated Poisson (burst/slow modes)")
    {
    }

    Cycle
    nextGap(StreamState &st, const TrafficConfig &cfg) const override
    {
        if (st.dwell == 0) {
            st.mode ^= 1;
            // Geometric dwell, mean 8 arrivals, never 0.
            st.dwell = 1;
            while (st.rng.u01() > 1.0 / 8.0 && st.dwell < 64)
                ++st.dwell;
        }
        --st.dwell;
        const double b = cfg.burstiness >= 1.0 ? cfg.burstiness : 1.0;
        const double mean =
            st.mode ? 2.0 * cfg.meanGapCycles / (1.0 + b)      // burst
                    : 2.0 * cfg.meanGapCycles * b / (1.0 + b); // slow
        return gapCycles(st.rng.expMean(mean));
    }
};

/**
 * Diurnal load: Poisson with the instantaneous rate modulated
 * sinusoidally over diurnalPeriod — rate peaks in the first half of
 * each period ("daytime") and bottoms out in the second.
 */
class DiurnalProcess final : public ArrivalProcess
{
  public:
    DiurnalProcess()
        : ArrivalProcess("diurnal",
                         "sinusoidally rate-modulated Poisson")
    {
    }

    Cycle
    nextGap(StreamState &st, const TrafficConfig &cfg) const override
    {
        const Cycle period =
            cfg.diurnalPeriod ? cfg.diurnalPeriod : 1'000'000;
        const double phase =
            2.0 * 3.14159265358979323846 *
            (static_cast<double>(st.clock % period) /
             static_cast<double>(period));
        const double rate_scale = 1.0 + 0.8 * std::sin(phase);
        return gapCycles(st.rng.expMean(cfg.meanGapCycles / rate_scale));
    }
};

/**
 * Closed-loop tenants: each tenant keeps one job in flight and submits
 * the next one a think time after the previous completes. The sampled
 * gap is the think time; the effective arrival is resolved by the
 * simulator against the predecessor's completion cycle.
 */
class ClosedLoopProcess final : public ArrivalProcess
{
  public:
    ClosedLoopProcess()
        : ArrivalProcess("closed",
                         "one job in flight per tenant, think-time gaps")
    {
    }

    bool closedLoop() const override { return true; }

    Cycle
    nextGap(StreamState &st, const TrafficConfig &cfg) const override
    {
        return gapCycles(st.rng.expMean(cfg.meanGapCycles));
    }
};

} // namespace

const std::vector<const ArrivalProcess *> &
allProcesses()
{
    static const std::vector<std::unique_ptr<const ArrivalProcess>>
        owned = [] {
            std::vector<std::unique_ptr<const ArrivalProcess>> v;
            v.emplace_back(std::make_unique<PoissonProcess>());
            v.emplace_back(std::make_unique<BurstyProcess>());
            v.emplace_back(std::make_unique<DiurnalProcess>());
            v.emplace_back(std::make_unique<ClosedLoopProcess>());
            return v;
        }();
    static const std::vector<const ArrivalProcess *> procs = [] {
        std::vector<const ArrivalProcess *> v;
        for (const auto &p : owned)
            v.push_back(p.get());
        return v;
    }();
    return procs;
}

const ArrivalProcess *
processByName(std::string_view name)
{
    for (const ArrivalProcess *p : allProcesses())
        if (name == p->key())
            return p;
    return nullptr;
}

} // namespace occamy::traffic
