#include "mem/cache.hh"

#include <cassert>
#include <ostream>

#include "ckpt/ckpt.hh"

namespace occamy
{

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    assert(cfg_.sizeBytes % (static_cast<std::uint64_t>(cfg_.lineBytes) *
                             cfg_.assoc) == 0);
    num_sets_ = static_cast<unsigned>(
        cfg_.sizeBytes / (static_cast<std::uint64_t>(cfg_.lineBytes) *
                          cfg_.assoc));
    assert(num_sets_ > 0);
    ways_.resize(static_cast<std::size_t>(num_sets_) * cfg_.assoc);
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    CacheAccessResult res;
    const Addr line = lineAddr(addr);
    const std::size_t base = setIndex(line) * cfg_.assoc;

    ++stamp_;

    // Hit path.
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Way &way = ways_[base + w];
        if (way.valid && way.tag == line) {
            way.lruStamp = stamp_;
            way.dirty |= is_write;
            ++hits_;
            res.hit = true;
            return res;
        }
    }

    // Miss: fill into invalid way or evict true-LRU.
    ++misses_;
    std::size_t victim = base;
    std::uint64_t oldest = ways_[base].lruStamp;
    bool found_invalid = false;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Way &way = ways_[base + w];
        if (!way.valid) {
            victim = base + w;
            found_invalid = true;
            break;
        }
        if (way.lruStamp <= oldest) {
            oldest = way.lruStamp;
            victim = base + w;
        }
    }

    Way &way = ways_[victim];
    if (!found_invalid && way.dirty) {
        ++writebacks_;
        res.writeback = true;
        res.victimLine = way.tag * cfg_.lineBytes;
    }
    way.tag = line;
    way.valid = true;
    way.dirty = is_write;
    way.lruStamp = stamp_;
    return res;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const std::size_t base = setIndex(line) * cfg_.assoc;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        const Way &way = ways_[base + w];
        if (way.valid && way.tag == line)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &way : ways_)
        way = Way{};
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
    ar.same(s.ways_.size(),
            "checkpoint cache geometry mismatch (" + s.name_ + ")");
    ar.len(valid, s.ways_.size(), "corrupt checkpoint (valid way count)");
    for (auto &[index, way] : valid) {
        ar.u32(index, s.ways_.size(), "corrupt checkpoint (way index)");
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
    for (std::size_t i = 0; i < ways_.size(); ++i)
        if (ways_[i].valid)
            valid.emplace_back(static_cast<std::uint32_t>(i), ways_[i]);
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
        ckpt::Reader::check(setIndex(way.tag) == index / cfg_.assoc,
                            "corrupt checkpoint (tag outside its set)");
        ways_[index] = way;
        ways_[index].valid = true;
    }
}

void
Cache::printState(std::ostream &os) const
{
    std::size_t valid = 0, dirty = 0;
    for (const Way &way : ways_) {
        valid += way.valid ? 1 : 0;
        dirty += way.valid && way.dirty ? 1 : 0;
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
