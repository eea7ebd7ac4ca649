/**
 * @file
 * Timing model of the shared memory hierarchy behind the co-processor's
 * LSUs: VecCache -> unified L2 -> DRAM (Fig. 4 and Table 4).
 *
 * Bandwidth at each level is modelled with busy-until pointers: a request
 * of B bytes occupies the level for ceil(B / bytes_per_cycle) cycles
 * starting no earlier than the level's previous completion, then adds the
 * level's latency. Contention between cores falls out naturally because
 * all cores share one MemSystem, exactly as they share the VecCache, L2
 * and DRAM in the paper.
 *
 * Two mechanisms make streaming loops bandwidth- rather than
 * latency-bound, as on real hardware:
 *  - a region stream prefetcher that keeps `prefetchDegree` lines ahead
 *    of every demand stream, and
 *  - MSHR-style per-line readiness: a hit on a line whose fill is still
 *    in flight waits for the fill, so prefetching never teleports data.
 *    Like an MSHR file, it holds only fills that have not landed yet.
 */

#ifndef OCCAMY_MEM_MEMSYSTEM_HH
#define OCCAMY_MEM_MEMSYSTEM_HH

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "obs/sink.hh"

namespace occamy
{

namespace fault
{
class FaultInjector;
}

/** Completion times of one vector memory access. */
struct MemAccessResult
{
    /** Cycle the data is available (loads) / line owned (stores). */
    Cycle dataReady = 0;
    /** Cycle the queue entry can be released (== dataReady for loads;
     *  stores retire into the store buffer earlier than this). */
    Cycle queueRelease = 0;
};

/** Timing + contents model of VecCache/L2/DRAM shared by all cores. */
class MemSystem
{
  public:
    explicit MemSystem(const MachineConfig &cfg);

    /**
     * Perform a vector memory access of @p bytes starting at @p addr.
     *
     * The access is split into 64 B lines; each line is serviced at the
     * innermost level that holds it. Stores are write-allocate but
     * complete into a store buffer (dataReady is near-immediate; the
     * fetch-for-ownership holds the queue entry via queueRelease).
     *
     * @param addr Starting byte address.
     * @param bytes Access width (16 * vl bytes for an SVE ld/st).
     * @param is_write True for stores.
     * @param now Cycle the LSU presents the request.
     */
    MemAccessResult access(Addr addr, unsigned bytes, bool is_write,
                           Cycle now);

    /**
     * Perform a strided (gather/scatter) access: @p count elements of
     * @p elem_bytes spaced @p stride elements apart starting at
     * @p addr. Each element occupies one port beat; distinct lines are
     * serviced individually.
     */
    MemAccessResult accessStrided(Addr addr, unsigned elem_bytes,
                                  std::int64_t stride, unsigned count,
                                  bool is_write, Cycle now);

    /** Scalar (single-word) reference; shares the hierarchy. */
    Cycle scalarAccess(Addr addr, bool is_write, Cycle now);

    /**
     * Quiescence probe for the fast-forward engine: earliest cycle
     * after @p now at which an issued line fill completes (a fill
     * whose line was filled again included), or kCycleNever when none
     * is outstanding. The memory system has no tick() — its state only
     * changes when a component calls access*() — so a pending fill is
     * the only thing that can make a *waiting* consumer's world change
     * without that consumer acting first. Pure: probing never changes
     * state, so callers may probe as often as they like.
     */
    Cycle nextEventAt(Cycle now) const;

    const Cache &vecCache() const { return vec_cache_; }
    const Cache &l2() const { return l2_; }

    std::uint64_t dramReads() const { return dram_reads_.value(); }
    std::uint64_t dramBytes() const { return dram_bytes_.value(); }
    std::uint64_t prefetches() const { return prefetches_.value(); }

    /** Lines with a fill still in flight as of the last access. */
    std::size_t inflightFills() const { return line_ready_.size(); }

    /** Drop all cached contents and reset busy pointers (tests only). */
    void reset();

    void regStats(stats::Group &group) const;

    /** Checkpoint hooks: busy pointers, the fills that land after the
     *  checkpoint cycle @p now (earlier ones cannot change a result or
     *  a probe once the run resumes at @p now), prefetch frontiers,
     *  counters and both cache levels. Unordered containers are
     *  serialized key-sorted so the byte stream is deterministic. */
    void save(ckpt::Writer &w, Cycle now) const;
    void load(ckpt::Reader &r, Cycle now);

    /** One-line-per-fact state dump for live inspection. */
    void printState(std::ostream &os) const;

    /** Attach/detach the trace sink (null = tracing off). */
    void setEventSink(obs::EventSink *sink) { sink_ = sink; }

    /** Attach a fault injector (null = fault-free; the default).
     *  Active DramSpike windows add latency / divide bandwidth. */
    void setFaultInjector(const fault::FaultInjector *inj)
    {
        injector_ = inj;
    }

    /**
     * Re-grant this memory slice's share of the machine's DRAM
     * bandwidth (the inter-cluster arbiter's lever on a clustered
     * machine; 1-cluster configs never call this). Floored at
     * 1 byte/cycle. Deliberately not checkpointed here: the arbiter
     * owns the grants and restores them from its own ckpt section.
     */
    void setDramBytesPerCycle(unsigned bpc)
    {
        dram_bpc_ = bpc > 0 ? bpc : 1;
    }

    /** Currently granted DRAM bandwidth in bytes/cycle. */
    unsigned dramBytesPerCycle() const { return dram_bpc_; }

  private:
    /** One issued line fill. */
    struct Fill
    {
        Cycle ready;
        Addr line;
    };

    /** The checkpoint field list, shared by save() and load(); the
     *  hash maps and the pending fills travel as the vectors @p ready,
     *  @p fills and @p frontier. */
    template <class Self, class Ar>
    static void io(Self &s, Ar &ar,
                   std::vector<std::pair<Addr, Cycle>> &ready,
                   std::vector<Fill> &fills,
                   std::vector<std::pair<Addr, Addr>> &frontier);

    /** Effective DRAM fill latency at @p now (injected spikes added). */
    unsigned dramLatencyAt(Cycle now) const;

    /** Effective DRAM bandwidth at @p now (injected divisor applied,
     *  floored at 1 byte/cycle). */
    unsigned dramBpcAt(Cycle now) const;

    /**
     * Service one cache line. @p vec_done is the cycle the VecCache
     * port delivers it on a hit (port occupancy is charged per access
     * in access(), not per line). @return cycle the line's data is
     * ready.
     */
    Cycle accessLine(Addr line_addr, bool is_write, Cycle now,
                     Cycle vec_done);

    /** Extend the stream frontier past @p trigger_line. */
    void maybePrefetch(Addr trigger_line, Cycle now);

    /** Ready cycle of the in-flight fill covering @p line (0 if
     *  settled). */
    Cycle lineReady(Addr line) const;

    /** Record a fill of @p line that lands at @p ready. */
    void pushFill(Addr line, Cycle ready);

    /** Retire every fill that landed by @p now (the access cycle). */
    void settle(Cycle now);

    /** Reserve @p bytes of bandwidth at a level. @return service start. */
    static Cycle reserve(Cycle &busy_until, unsigned bytes,
                         unsigned bytes_per_cycle, Cycle now);

    MachineConfig cfg_;
    Cache vec_cache_;
    Cache l2_;

    /** Granted DRAM bandwidth; starts at cfg_.dramBytesPerCycle and is
     *  re-granted by the inter-cluster arbiter on clustered machines. */
    unsigned dram_bpc_;

    /** VecCache port busy time in fractional cycles (an access of B
     *  bytes occupies the 2x64 B port for B/128 cycles). */
    double vec_busy_until_ = 0.0;
    Cycle l2_busy_until_ = 0;
    Cycle dram_busy_until_ = 0;

    /** Line address -> ready cycle of its latest fill, for fills that
     *  land after the last access (MSHR-style): settle() drops the
     *  rest, so this holds only misses still in flight. */
    std::unordered_map<Addr, Cycle> line_ready_;

    /** The same fills in completion order, plus any whose line was
     *  filled again before they landed (nextEventAt() reports every
     *  completion). Fills complete in nearly issue order, so an insert
     *  is almost always an append and settle() pops from the front. */
    std::deque<Fill> fills_;

    /** 4 KB region -> highest line prefetched for that stream. */
    std::unordered_map<Addr, Addr> frontier_;

    stats::Counter dram_reads_;
    stats::Counter dram_bytes_;
    stats::Counter accesses_;
    stats::Counter prefetches_;

    obs::EventSink *sink_ = nullptr;    ///< Borrowed, may be null.
    const fault::FaultInjector *injector_ = nullptr;  ///< Borrowed.
};

} // namespace occamy

#endif // OCCAMY_MEM_MEMSYSTEM_HH
