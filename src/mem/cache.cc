#include "mem/cache.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>
#include <ostream>
#include <stdexcept>

#include "ckpt/ckpt.hh"

namespace occamy
{

namespace
{

/** The set count of @p cfg, checked: shift/mask indexing needs a
 *  power-of-two line size and set count, and a line of at least 4 B
 *  keeps line + 1 below the tag word's dirty bit. */
unsigned
checkedSets(const std::string &name, const CacheConfig &cfg)
{
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(cfg.lineBytes) * cfg.assoc;
    if (cfg.lineBytes < 4 || !std::has_single_bit(cfg.lineBytes))
        throw std::invalid_argument(
            name + ": line size must be a power of two of at least 4 B "
                   "(got " + std::to_string(cfg.lineBytes) + ")");
    if (set_bytes == 0 || cfg.sizeBytes % set_bytes != 0 ||
        !std::has_single_bit(cfg.sizeBytes / set_bytes) ||
        cfg.sizeBytes / set_bytes > (std::uint64_t{1} << 31))
        throw std::invalid_argument(
            name + ": size must be a power-of-two number of whole sets "
                   "(got " + std::to_string(cfg.sizeBytes) + " B, " +
            std::to_string(cfg.assoc) + " ways of " +
            std::to_string(cfg.lineBytes) + " B)");
    return static_cast<unsigned>(cfg.sizeBytes / set_bytes);
}

} // namespace

Cache::ZeroPages::ZeroPages(std::size_t words)
    : bytes_(words * sizeof(std::uint64_t))
{
    void *p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    // A huge page would make the first way written in a 2 MB region
    // resident for all of it.
    madvise(p, bytes_, MADV_NOHUGEPAGE);
    data_ = static_cast<std::uint64_t *>(p);
}

Cache::ZeroPages::ZeroPages(ZeroPages &&o) noexcept
    : data_(std::exchange(o.data_, nullptr)),
      bytes_(std::exchange(o.bytes_, 0))
{
}

Cache::ZeroPages::~ZeroPages()
{
    if (data_)
        munmap(data_, bytes_);
}

void
Cache::ZeroPages::zero()
{
    // Dropping the pages re-maps the range to demand-zero pages, so
    // only what is written again becomes resident again.
    if (madvise(data_, bytes_, MADV_DONTNEED) != 0)
        std::fill_n(data_, bytes_ / sizeof(std::uint64_t), 0);
}

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg),
      num_sets_(checkedSets(name_, cfg_)),
      line_shift_(static_cast<unsigned>(std::countr_zero(cfg_.lineBytes))),
      set_mask_(num_sets_ - 1),
      num_ways_(static_cast<std::size_t>(num_sets_) * cfg_.assoc),
      pages_(2 * num_ways_)
{
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    CacheAccessResult res;
    const Addr line = lineAddr(addr);
    const std::uint64_t key = line + 1;
    const std::uint64_t dirty = is_write ? kDirty : 0;
    const std::size_t base = setIndex(line) * cfg_.assoc;
    std::uint64_t *const tag = tags() + base;
    std::uint64_t *const stamp = stamps() + base;

    ++stamp_;

    // Hit path.
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if ((tag[w] & ~kDirty) == key) {
            stamp[w] = stamp_;
            tag[w] |= dirty;
            ++hits_;
            res.hit = true;
            return res;
        }
    }

    // Miss: fill into invalid way or evict true-LRU.
    ++misses_;
    unsigned victim = 0;
    std::uint64_t oldest = stamp[0];
    bool found_invalid = false;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (tag[w] == 0) {
            victim = w;
            found_invalid = true;
            break;
        }
        if (stamp[w] <= oldest) {
            oldest = stamp[w];
            victim = w;
        }
    }

    if (!found_invalid && (tag[victim] & kDirty)) {
        ++writebacks_;
        res.writeback = true;
        res.victimLine = ((tag[victim] & ~kDirty) - 1) << line_shift_;
    }
    tag[victim] = key | dirty;
    stamp[victim] = stamp_;
    return res;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const std::uint64_t *const tag = tags() + setIndex(line) * cfg_.assoc;
    for (unsigned w = 0; w < cfg_.assoc; ++w)
        if ((tag[w] & ~kDirty) == line + 1)
            return true;
    return false;
}

void
Cache::flush()
{
    pages_.zero();
}

void
Cache::regStats(stats::Group &group) const
{
    group.addCounter(name_ + ".hits", &hits_, "line hits");
    group.addCounter(name_ + ".misses", &misses_, "line misses");
    group.addCounter(name_ + ".writebacks", &writebacks_,
                     "dirty lines evicted");
    group.addFormula(name_ + ".miss_rate", [this] {
        const double total = static_cast<double>(hits() + misses());
        return total > 0 ? misses() / total : 0.0;
    }, "miss fraction");
}

template <class Self, class Ar>
void
Cache::io(Self &s, Ar &ar, std::vector<std::pair<std::uint32_t, Way>> &valid)
{
    ar.section(("cache." + s.name_).c_str());
    ar.u64(s.stamp_);
    ar.same(s.num_ways_,
            "checkpoint cache geometry mismatch (" + s.name_ + ")");
    ar.len(valid, s.num_ways_, "corrupt checkpoint (valid way count)");
    for (auto &[index, way] : valid) {
        ar.u32(index, s.num_ways_, "corrupt checkpoint (way index)");
        ar.u64(way.tag);
        ar.b(way.dirty);
        ar.u64(way.lruStamp);
    }
    ar.counter(s.hits_);
    ar.counter(s.misses_);
    ar.counter(s.writebacks_);
}

void
Cache::save(ckpt::Writer &w) const
{
    std::vector<std::pair<std::uint32_t, Way>> valid;
    for (std::size_t i = 0; i < num_ways_; ++i)
        if (const std::uint64_t t = tags()[i])
            valid.emplace_back(static_cast<std::uint32_t>(i),
                               Way{(t & ~kDirty) - 1, (t & kDirty) != 0,
                                   stamps()[i]});
    io(*this, w, valid);
}

void
Cache::load(ckpt::Reader &r)
{
    std::vector<std::pair<std::uint32_t, Way>> valid;
    io(*this, r, valid);
    flush();
    for (std::size_t i = 0; i < valid.size(); ++i) {
        const auto &[index, way] = valid[i];
        ckpt::Reader::check(i == 0 || valid[i - 1].first < index,
                            "corrupt checkpoint (way indices not "
                            "increasing)");
        ckpt::Reader::check(way.tag < kDirty - 1,
                            "corrupt checkpoint (tag does not fit a "
                            "tag word)");
        ckpt::Reader::check(setIndex(way.tag) == index / cfg_.assoc,
                            "corrupt checkpoint (tag outside its set)");
        tags()[index] = (way.tag + 1) | (way.dirty ? kDirty : 0);
        stamps()[index] = way.lruStamp;
    }
}

void
Cache::printState(std::ostream &os) const
{
    std::size_t valid = 0, dirty = 0;
    for (std::size_t i = 0; i < num_ways_; ++i) {
        valid += tags()[i] != 0 ? 1 : 0;
        dirty += (tags()[i] & kDirty) != 0 ? 1 : 0;
    }
    os << name_ << ".size_bytes " << cfg_.sizeBytes << '\n'
       << name_ << ".sets " << num_sets_ << '\n'
       << name_ << ".assoc " << cfg_.assoc << '\n'
       << name_ << ".valid_lines " << valid << '\n'
       << name_ << ".dirty_lines " << dirty << '\n'
       << name_ << ".hits " << hits() << '\n'
       << name_ << ".misses " << misses() << '\n'
       << name_ << ".writebacks " << writebacks() << '\n';
}

} // namespace occamy
