/**
 * @file
 * Per-cluster tick engine (the parallel unit of the cycle loop).
 *
 * One ClusterEngine owns everything a cluster touches while ticking: its
 * flat K-core config view, memory system, co-processor, scalar cores,
 * per-core busy/allocated-lane accounting, and (when event tracing is
 * on) a private obs::BufferSink. Clusters share no mutable component
 * (policies are immortal const singletons, the fault injector attaches
 * to cluster 0 alone), so engines tick the same cycle on separate
 * threads with no locks.
 *
 * The Coordinator (sim/coordinator.hh) drives the engines in windows:
 * its runRound() calls tickWindow(), which runs this cluster's own
 * cycle loop — ticks, skips over its own quiescent stretches, and
 * completion detection — until a stop the Coordinator must see (a live
 * core becoming drained()) or the round's limit. The engine counts the
 * cycles it ticks and skips (takeFf()); every serial, cross-cluster
 * step (arbiter, dispatch, admission, watchdog), the machine-wide skip
 * at a window's end and the cluster-order merge of buffered events stay
 * with the Coordinator (DESIGN.md §15).
 */

#ifndef OCCAMY_SIM_CLUSTER_ENGINE_HH
#define OCCAMY_SIM_CLUSTER_ENGINE_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "coproc/coproc.hh"
#include "core/scalar_core.hh"
#include "mem/memsystem.hh"
#include "obs/sink.hh"
#include "sim/system.hh"

namespace occamy
{

/** One cluster's components plus its slice of the cycle loop. */
class ClusterEngine
{
  public:
    /**
     * @param id Cluster id (0 on a flat machine).
     * @param view Flat K-core view of the cluster (the whole config on
     *        a flat machine).
     * @param stats_prefix Stats-group prefix, e.g. "system" or
     *        "system.cluster2".
     * @param full_width FTS busy-lane capping; @p fast_forward skips
     *        quiescent stretches. Run constants of every tick window.
     */
    ClusterEngine(unsigned id, const MachineConfig &view,
                  const std::string &stats_prefix, bool full_width,
                  bool fast_forward);
    ~ClusterEngine();

    unsigned id() const { return id_; }
    const MachineConfig &view() const { return view_; }
    MemSystem &mem() { return mem_; }
    const MemSystem &mem() const { return mem_; }
    CoProcessor &coproc() { return coproc_; }
    const CoProcessor &coproc() const { return coproc_; }
    stats::Group &memGroup() { return mem_group_; }
    stats::Group &cpGroup() { return cp_group_; }

    // --- Boot-time wiring (the Coordinator's constructor). ---

    /** Adopt the next local core (construction order = local id). */
    void addCore(std::unique_ptr<ScalarCore> core);

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    ScalarCore &core(CoreId local) { return *cores_[local]; }
    const ScalarCore &core(CoreId local) const { return *cores_[local]; }

    /** Attach the run's event sink (null: tracing off) to every
     *  component of this cluster through a private BufferSink, which
     *  the coordinator drains cycle by cycle in cluster-id order. */
    void attachSink(obs::EventSink *sink);

    /** Register component stats into the per-cluster groups. */
    void regStats();

    // --- Tick windows (worker or coordinator thread). ---

    /**
     * Start a window at @p now: skip forward to it if behind (the
     * machine-wide run skipped those cycles, so this engine is
     * quiescent there), forget the previous window's records, and make
     * the next tickWindow() tick @p now itself — the coordinator's
     * pre-tick actions may have changed what this engine's probes say.
     * Also re-reads which local cores are live (not yet drained()).
     * Coordinator only, between rounds.
     */
    void beginWindow(Cycle now);

    /**
     * Tick and skip from at() until @p limit (exclusive) or a stop: the
     * first cycle at which a live core becomes done and drained (an
     * edge). With fast-forward on, a tick that leaves the engine
     * quiescent (every probe > cycle + 1) lets it skip to the earliest
     * probe. Touches only this cluster.
     */
    void tickWindow(Cycle limit);

    /** Next cycle this engine will tick or skip. */
    Cycle at() const { return at_; }

    /** Restored state is exactly "about to tick @p now". */
    void restoredAt(Cycle now)
    {
        at_ = now;
        quiet_ = false;
    }

    /** A stop awaits the coordinator (set by tickWindow). */
    bool stopped() const { return stopped_; }
    /** Cycle of the pending stop. */
    Cycle stopCycle() const { return stop_at_; }
    /** Local cores that became done and drained at the pending stop. */
    const std::vector<CoreId> &edges() const { return edges_; }

    /** The coordinator processed the stop; the next tickWindow() may
     *  run on. */
    void resume()
    {
        stopped_ = false;
        edges_.clear();
    }

    /** Some local core is still running (or owed) work. */
    bool hasLiveCore() const { return live_count_ > 0; }
    /** Local core @p c was live at beginWindow() and has not become
     *  drained() at a tick since. */
    bool live(CoreId c) const { return live_[c]; }
    /** Local core @p c is done emitting and its pipeline is drained. */
    bool drained(CoreId c) const
    {
        return cores_[c]->doneEmitting() && coproc_.coreDrained(c);
    }

    /** First cycle this engine may still have an edge at: every
     *  earlier one was ticked, or lies in its quiescent stretch. */
    Cycle knownUntil() const
    {
        return quiet_ ? std::max(at_, qwake_) : at_;
    }

    /** Quiescence probes after a tick: the three engine tiers of the
     *  fast-forward wake, in their tie-breaking order. */
    struct Probe
    {
        Cycle coproc = kCycleNever;
        Cycle core = kCycleNever;
        Cycle mem = kCycleNever;
    };

    /** The wake ladder on live state at @p t (the engine synchronized
     *  just past @p t): a later tier is only probed while every earlier
     *  one is beyond t + 1. @return quiescent: all three are, so
     *  nothing acts before the earliest. */
    bool probeLive(Cycle t, Probe *probe) const;

    /** Record live probes @p p (every tier beyond its cycle + 1) as the
     *  pending quiescent stretch. The coordinator's serial step at a
     *  window's last cycle (watchdog escalation, dispatch) may change
     *  what this engine's own last tick recorded, so a machine-wide
     *  skip decided on live state is bounded by these instead. */
    void markQuiet(const Probe &p);

    /** Skip forward to @p to (exclusive) across a quiescent stretch:
     *  synthesize the bucket accounting, advance skip-invariant
     *  co-processor state and count the skip — as a new span, or as
     *  more of the last one when it ended at at(). */
    void skipTo(Cycle to);

    /** Add the cycles ticked and skipped since the last call into
     *  @p into, then zero them (the coordinator calls this in cluster
     *  order). A span that later grows is still one span. */
    void takeFf(FastForwardStats &into);

    /** Flush buffered events of cycles <= @p upto downstream
     *  (coordinator, cluster order). No-op when tracing is off. */
    void drainEventsUpTo(Cycle upto)
    {
        if (buffer_)
            buffer_->drainUpTo(upto);
    }
    /** Cycle of the oldest undrained buffered event (kCycleNever if
     *  none or tracing is off). */
    Cycle nextEventCycle() const
    {
        return buffer_ ? buffer_->nextCycle() : kCycleNever;
    }

    // --- Accounting access (finalize and checkpointing). ---

    double &busyIntegral() { return busy_integral_; }
    std::vector<double> &busyBuckets(CoreId local)
    {
        return busy_buckets_[local];
    }
    std::vector<double> &allocBuckets(CoreId local)
    {
        return alloc_buckets_[local];
    }

  private:
    unsigned id_;
    MachineConfig view_;
    bool full_width_;
    bool fast_forward_;
    MemSystem mem_;
    CoProcessor coproc_;

    /** Snapshot groups are built once and re-sampled each period; the
     *  same groups feed the final statsText dump. */
    stats::Group mem_group_;
    stats::Group cp_group_;

    std::vector<std::unique_ptr<ScalarCore>> cores_;

    /** Deferred event forwarding; null on sink-less runs. */
    std::unique_ptr<obs::BufferSink> buffer_;

    /** Tick one cycle: co-processor first, then the local cores (their
     *  construction order — the global tick order restricted to this
     *  cluster), then the cycle's lane accounting (FTS busy-lane
     *  scaling, busy/allocated bucket sums, the busy-lane integral). */
    void tickCycle(Cycle now);

    /** Account a skipped quiescent span [from, to]: busy adds 0.0 per
     *  cycle (exact — nothing issues while quiescent) and alloc adds
     *  the lanes currently allocated, which cannot change mid-span. */
    void synthesizeSkipped(Cycle from, Cycle to);

    Cycle at_ = 0;              ///< Next cycle to tick or skip.
    /** Pending quiescent stretch: the last tick left every probe
     *  beyond its cycle + 1; skips run up to qwake_. */
    bool quiet_ = false;
    Cycle qwake_ = 0;

    bool stopped_ = false;
    Cycle stop_at_ = 0;
    std::vector<CoreId> edges_;

    /** Ticks and skips not yet taken; the last span ran
     *  [span_from_, skip_end_). */
    FastForwardStats ff_;
    Cycle span_from_ = 0;
    Cycle skip_end_ = kCycleNever;

    /** Per local core: not yet done emitting and drained. */
    std::vector<bool> live_;
    unsigned live_count_ = 0;

    /** Per-cluster FTS busy-lane scale for the current cycle. */
    double fts_scale_ = 1.0;

    /** This cluster's share of the machine's busy-lane integral; the
     *  coordinator sums the shares in cluster-id order at finalize, so
     *  the total is independent of the worker-thread count (and equal
     *  to the pre-engine accumulator on a flat machine). */
    double busy_integral_ = 0.0;

    /** Per local core, per kTimelineBucket cycles: busy / allocated
     *  lane sums (the Fig. 2/14 timelines). */
    std::vector<std::vector<double>> busy_buckets_;
    std::vector<std::vector<double>> alloc_buckets_;
};

} // namespace occamy

#endif // OCCAMY_SIM_CLUSTER_ENGINE_HH
