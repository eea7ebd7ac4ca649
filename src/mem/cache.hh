/**
 * @file
 * Set-associative cache tag model with true-LRU replacement and
 * write-back/write-allocate semantics.
 *
 * This models *contents* (hit/miss and dirty-eviction behaviour); timing
 * (latency and bandwidth) is layered on top by MemSystem so that the same
 * tag model serves the VecCache and the unified L2 from Table 4.
 */

#ifndef OCCAMY_MEM_CACHE_HH
#define OCCAMY_MEM_CACHE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/fwd.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace occamy
{

/** Result of a cache lookup-and-fill. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty line was evicted and must be written back downstream. */
    bool writeback = false;
    /** Line address of the written-back victim (valid iff writeback). */
    Addr victimLine = 0;
};

/** One set-associative write-back cache level. */
class Cache
{
  public:
    /**
     * @param name Stats prefix (e.g. "vec_cache").
     * @param cfg Geometry and (unused here) timing parameters.
     */
    Cache(std::string name, const CacheConfig &cfg);

    /**
     * Look up one line; on miss, allocate it (evicting LRU).
     *
     * @param addr Any byte address inside the line.
     * @param is_write Marks the line dirty on hit or fill.
     * @return hit/miss and any dirty victim produced by the fill.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Probe without modifying state. @return true on present line. */
    bool contains(Addr addr) const;

    /** Invalidate everything (used between simulated workload phases
     *  only by tests; real runs keep contents warm). */
    void flush();

    unsigned lineBytes() const { return cfg_.lineBytes; }
    std::uint64_t sizeBytes() const { return cfg_.sizeBytes; }
    unsigned numSets() const { return num_sets_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    /** Register this cache's counters with a stats group. */
    void regStats(stats::Group &group) const;

    /** Checkpoint hooks: the valid ways (index, tag, dirty bit, LRU
     *  stamp), LRU clock and counters. An invalid way is always
     *  Way{}, so the valid ones determine the whole tag array. */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

    /** One-line-per-fact state dump for live inspection. */
    void printState(std::ostream &os) const;

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    /** The checkpoint field list; the valid ways travel as the
     *  (index, way) list @p valid, in ascending index order. */
    template <class Self, class Ar>
    static void io(Self &s, Ar &ar,
                   std::vector<std::pair<std::uint32_t, Way>> &valid);

    Addr lineAddr(Addr addr) const { return addr / cfg_.lineBytes; }
    std::size_t setIndex(Addr line) const { return line % num_sets_; }

    std::string name_;
    CacheConfig cfg_;
    unsigned num_sets_;
    std::vector<Way> ways_;         ///< num_sets_ * assoc, row-major.
    std::uint64_t stamp_ = 0;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter writebacks_;
};

} // namespace occamy

#endif // OCCAMY_MEM_CACHE_HH
