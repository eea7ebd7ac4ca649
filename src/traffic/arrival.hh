/**
 * @file
 * The arrival-process strategy layer: one immutable object per
 * stochastic process, name-keyed in a registry mirroring src/policy's
 * SharingModel pattern. A process is a pure gap sampler — all mutable
 * per-stream state (RNG, stream clock, mode bits) lives in the
 * StreamState the generator owns, so processes are shareable
 * singletons and every stream stays independently seeded.
 */

#ifndef OCCAMY_TRAFFIC_ARRIVAL_HH
#define OCCAMY_TRAFFIC_ARRIVAL_HH

#include <string_view>
#include <vector>

#include "traffic/traffic.hh"

namespace occamy::traffic
{

/** Longest gap and latest arrival a stream produces: sampled gaps and
 *  the running stream clock saturate here, a quarter of the cycle
 *  range, so adding an SLO budget, an admission backoff or a dispatch
 *  delay to an arrival cannot wrap. */
inline constexpr Cycle kArrivalCap = Cycle{1} << 62;

/** Mutable per-tenant-stream sampling state. */
struct StreamState
{
    Rng rng;
    Cycle clock = 0;            ///< Stream time after the last arrival.
    std::uint64_t mode = 0;     ///< Process-specific (MMPP mode).
    std::uint64_t dwell = 0;    ///< Arrivals left in the current mode.

    explicit StreamState(std::uint64_t seed) : rng(seed) {}
};

/** Strategy interface for one stochastic arrival process. */
class ArrivalProcess
{
  public:
    ArrivalProcess(const char *key, const char *summary)
        : key_(key), summary_(summary)
    {
    }

    virtual ~ArrivalProcess() = default;

    ArrivalProcess(const ArrivalProcess &) = delete;
    ArrivalProcess &operator=(const ArrivalProcess &) = delete;

    /** Canonical registry key, e.g. "poisson" (lowercase, stable). */
    const char *key() const { return key_; }

    /** One-line description for --list-traffic output. */
    const char *summary() const { return summary_; }

    /** True for processes whose next arrival waits on the previous
     *  job's *completion* (the sampled gap becomes think time). */
    virtual bool closedLoop() const { return false; }

    /**
     * Sample the next inter-arrival gap (1 to kArrivalCap cycles) for
     * one tenant stream. @p st carries the stream's RNG and clock; the
     * caller advances st.clock by the returned gap, saturating at
     * kArrivalCap.
     */
    virtual Cycle nextGap(StreamState &st,
                          const TrafficConfig &cfg) const = 0;

  private:
    const char *key_;
    const char *summary_;
};

/** Every registered process, in presentation order. */
const std::vector<const ArrivalProcess *> &allProcesses();

/** @return the process registered under @p name, or null. */
const ArrivalProcess *processByName(std::string_view name);

} // namespace occamy::traffic

#endif // OCCAMY_TRAFFIC_ARRIVAL_HH
