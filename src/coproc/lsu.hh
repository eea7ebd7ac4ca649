/**
 * @file
 * Load/store unit: the STQ / load-queue structures of Fig. 5, limiting
 * memory-level parallelism per core (or globally under FTS).
 */

#ifndef OCCAMY_COPROC_LSU_HH
#define OCCAMY_COPROC_LSU_HH

#include <queue>
#include <vector>

#include "ckpt/fwd.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memsystem.hh"

namespace occamy
{

/** One LSU: bounded load/store queues feeding the shared MemSystem. */
class Lsu
{
  public:
    explicit Lsu(const MachineConfig &cfg)
        : lq_capacity_(cfg.loadQueueEntries),
          sq_capacity_(cfg.storeQueueEntries)
    {
    }

    bool canIssueLoad() const { return lq_.size() < lq_capacity_; }
    bool canIssueStore() const { return sq_.size() < sq_capacity_; }

    /**
     * Issue a vector load; occupies a load-queue entry until the data
     * returns. @return the data-ready cycle.
     */
    Cycle
    issueLoad(MemSystem &mem, Addr addr, unsigned bytes, Cycle now)
    {
        const MemAccessResult r =
            mem.access(addr, bytes, /*is_write=*/false, now);
        lq_.push(r.queueRelease);
        ++loads_;
        return r.dataReady;
    }

    /**
     * Issue a vector store. The store retires quickly into the store
     * buffer; the fetch-for-ownership holds the STQ entry.
     * @return the retirement cycle.
     */
    Cycle
    issueStore(MemSystem &mem, Addr addr, unsigned bytes, Cycle now)
    {
        const MemAccessResult r =
            mem.access(addr, bytes, /*is_write=*/true, now);
        sq_.push(r.queueRelease);
        ++stores_;
        return r.dataReady;
    }

    /** Issue a gather load: one element per beat, one LQ entry. */
    Cycle
    issueGather(MemSystem &mem, Addr addr, unsigned elem_bytes,
                std::int64_t stride, unsigned count, Cycle now)
    {
        const MemAccessResult r = mem.accessStrided(
            addr, elem_bytes, stride, count, /*is_write=*/false, now);
        lq_.push(r.queueRelease);
        ++loads_;
        return r.dataReady;
    }

    /** Issue a scatter store. */
    Cycle
    issueScatter(MemSystem &mem, Addr addr, unsigned elem_bytes,
                 std::int64_t stride, unsigned count, Cycle now)
    {
        const MemAccessResult r = mem.accessStrided(
            addr, elem_bytes, stride, count, /*is_write=*/true, now);
        sq_.push(r.queueRelease);
        ++stores_;
        return r.dataReady;
    }

    /** Release queue entries whose accesses completed by @p now. */
    void
    tick(Cycle now)
    {
        while (!lq_.empty() && lq_.top() <= now)
            lq_.pop();
        while (!sq_.empty() && sq_.top() <= now)
            sq_.pop();
    }

    bool empty() const { return lq_.empty() && sq_.empty(); }

    /** Earliest future cycle a queue entry releases (kCycleNever when
     *  both queues are empty). Quiescence input for fast-forward. */
    Cycle
    nextRelease() const
    {
        Cycle next = kCycleNever;
        if (!lq_.empty())
            next = lq_.top();
        if (!sq_.empty() && sq_.top() < next)
            next = sq_.top();
        return next;
    }

    std::size_t loadQueueOccupancy() const { return lq_.size(); }
    std::size_t storeQueueOccupancy() const { return sq_.size(); }
    std::uint64_t loadsIssued() const { return loads_.value(); }
    std::uint64_t storesIssued() const { return stores_.value(); }

    /** Checkpoint hooks (src/ckpt/components.cc): queue contents are
     *  serialized as drained min-heap copies, i.e. ascending. */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

  private:
    /** The checkpoint field list, shared by save() and load(); the
     *  queues travel as the ascending vectors @p lq and @p sq. */
    template <class Self, class Ar>
    static void io(Self &s, Ar &ar, std::vector<Cycle> &lq,
                   std::vector<Cycle> &sq);

    using MinHeap = std::priority_queue<Cycle, std::vector<Cycle>,
                                        std::greater<Cycle>>;
    unsigned lq_capacity_;
    unsigned sq_capacity_;
    MinHeap lq_;
    MinHeap sq_;
    stats::Counter loads_;
    stats::Counter stores_;
};

} // namespace occamy

#endif // OCCAMY_COPROC_LSU_HH
