/**
 * @file
 * Set-associative cache tag model with true-LRU replacement and
 * write-back/write-allocate semantics.
 *
 * This models *contents* (hit/miss and dirty-eviction behaviour); timing
 * (latency and bandwidth) is layered on top by MemSystem so that the same
 * tag model serves the VecCache and the unified L2 from Table 4.
 *
 * Storage costs what the model holds: each way is a packed tag word
 * and an LRU stamp in two flat arrays on anonymous zero pages, so a set
 * that was never filled costs no host memory (DESIGN.md §5).
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

/** One set-associative write-back cache level. Movable but not
 *  copyable: it owns its page mapping. */
class Cache
{
  public:
    /**
     * @param name Stats prefix (e.g. "vec_cache").
     * @param cfg Geometry and (unused here) timing parameters.
     * @throws std::invalid_argument unless the line size (at least 4 B)
     *         and the number of sets are powers of two.
     */
    Cache(std::string name, const CacheConfig &cfg);
    Cache(Cache &&) = default;
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

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
    /** log2(lineBytes()): a byte address >> lineShift() is its line. */
    unsigned lineShift() const { return line_shift_; }
    std::uint64_t sizeBytes() const { return cfg_.sizeBytes; }
    unsigned numSets() const { return num_sets_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    /** Register this cache's counters with a stats group. */
    void regStats(stats::Group &group) const;

    /** Checkpoint hooks: the valid ways (index, tag, dirty bit, LRU
     *  stamp), LRU clock and counters. An invalid way is all zero, so
     *  the valid ones determine the whole tag array. */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

    /** One-line-per-fact state dump for live inspection. */
    void printState(std::ostream &os) const;

  private:
    /** A valid way's checkpoint record; in memory it is packed. */
    struct Way
    {
        Addr tag = 0;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    /** Anonymous pages that read as zero until written: untouched ones
     *  cost no host memory, and zero() hands them back instead of
     *  writing them. */
    class ZeroPages
    {
      public:
        explicit ZeroPages(std::size_t words);
        ZeroPages(ZeroPages &&o) noexcept;
        ZeroPages &operator=(ZeroPages &&) = delete;
        ~ZeroPages();

        std::uint64_t *data() const { return data_; }
        void zero();

      private:
        std::uint64_t *data_ = nullptr;
        std::size_t bytes_ = 0;
    };

    /** A tag word holds line + 1 (so 0 is an invalid way) with the
     *  dirty flag in the top bit. */
    static constexpr std::uint64_t kDirty = std::uint64_t{1} << 63;

    /** The checkpoint field list; the valid ways travel as the
     *  (index, way) list @p valid, in ascending index order. */
    template <class Self, class Ar>
    static void io(Self &s, Ar &ar,
                   std::vector<std::pair<std::uint32_t, Way>> &valid);

    Addr lineAddr(Addr addr) const { return addr >> line_shift_; }
    std::size_t setIndex(Addr line) const { return line & set_mask_; }

    /** num_ways_ tag words, then num_ways_ LRU stamps; way w of set s
     *  is index s * assoc + w of both. */
    std::uint64_t *tags() const { return pages_.data(); }
    std::uint64_t *stamps() const { return pages_.data() + num_ways_; }

    std::string name_;
    CacheConfig cfg_;
    unsigned num_sets_;
    unsigned line_shift_;
    Addr set_mask_;
    std::size_t num_ways_;          ///< num_sets_ * assoc.
    ZeroPages pages_;
    std::uint64_t stamp_ = 0;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter writebacks_;
};

} // namespace occamy

#endif // OCCAMY_MEM_CACHE_HH
