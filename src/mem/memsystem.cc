#include "mem/memsystem.hh"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "ckpt/ckpt.hh"
#include "fault/injector.hh"

namespace occamy
{

MemSystem::MemSystem(const MachineConfig &cfg)
    : cfg_(cfg),
      vec_cache_("vec_cache", cfg.vecCache),
      l2_("l2", cfg.l2),
      dram_bpc_(cfg.dramBytesPerCycle)
{
}

unsigned
MemSystem::dramLatencyAt(Cycle now) const
{
    if (!injector_)
        return cfg_.dramLatency;
    return cfg_.dramLatency + injector_->dramExtraLatency(now);
}

unsigned
MemSystem::dramBpcAt(Cycle now) const
{
    if (!injector_)
        return dram_bpc_;
    const unsigned div = std::max(1u, injector_->dramBandwidthDivisor(now));
    return std::max(1u, dram_bpc_ / div);
}

Cycle
MemSystem::reserve(Cycle &busy_until, unsigned bytes,
                   unsigned bytes_per_cycle, Cycle now)
{
    assert(bytes_per_cycle > 0);
    const Cycle start = std::max(now, busy_until);
    const Cycle busy = (bytes + bytes_per_cycle - 1) / bytes_per_cycle;
    busy_until = start + busy;
    return start;
}

Cycle
MemSystem::lineReady(Addr line) const
{
    const auto it = line_ready_.find(line);
    return it == line_ready_.end() ? 0 : it->second;
}

void
MemSystem::pushFill(Addr line, Cycle ready)
{
    line_ready_[line] = ready;
    if (fills_.empty() || ready >= fills_.back().ready) {
        fills_.push_back({ready, line});
        return;
    }
    const auto at = std::upper_bound(
        fills_.begin(), fills_.end(), ready,
        [](Cycle r, const Fill &f) { return r < f.ready; });
    fills_.insert(at, {ready, line});
}

void
MemSystem::settle(Cycle now)
{
    // A landed fill no longer changes a result: accessLine() returns
    // at least the access's own VecCache or L2 completion, which is
    // never before now. The map entry goes only if it belongs to a
    // landed fill too, not to a later refill of the same line.
    while (!fills_.empty() && fills_.front().ready <= now) {
        const auto it = line_ready_.find(fills_.front().line);
        if (it != line_ready_.end() && it->second <= now)
            line_ready_.erase(it);
        fills_.pop_front();
    }
}

void
MemSystem::maybePrefetch(Addr trigger_line, Cycle now)
{
    if (cfg_.prefetchDegree == 0)
        return;
    const unsigned line = cfg_.vecCache.lineBytes;
    const Addr region = trigger_line / 4096;    // 4 KB stream region.

    auto [it, inserted] = frontier_.try_emplace(region, trigger_line);
    Addr frontier = inserted ? trigger_line : it->second;
    const Addr target =
        trigger_line + static_cast<Addr>(cfg_.prefetchDegree) * line;
    if (frontier >= target)
        return;

    for (Addr pf = std::max(frontier + line, trigger_line + line);
         pf <= target; pf += line) {
        if (vec_cache_.contains(pf) || l2_.contains(pf))
            continue;
        const Cycle start =
            reserve(dram_busy_until_, line, dramBpcAt(now), now);
        dram_bytes_ += line;
        ++prefetches_;
        pushFill(pf, start + dramLatencyAt(now));
        obs::emit(sink_, obs::EventKind::DramRead, now, kNoCore, pf, line,
                  start + dramLatencyAt(now));
        // Prefetch into L2 only: demand accesses pull lines into the
        // VecCache, so streams do not flush co-runners' resident sets.
        CacheAccessResult pr = l2_.access(pf, /*is_write=*/false);
        if (pr.writeback)
            reserve(dram_busy_until_, line, dramBpcAt(now), start);
    }
    it->second = target;
}

Cycle
MemSystem::accessLine(Addr line_addr, bool is_write, Cycle now,
                      Cycle vec_done)
{
    const unsigned line = cfg_.vecCache.lineBytes;

    CacheAccessResult vc = vec_cache_.access(line_addr, is_write);
    if (vc.hit) {
        // Keep the stream frontier running ahead of the demand pointer.
        maybePrefetch(line_addr, now);
        return std::max(vec_done, lineReady(line_addr));
    }

    // Dirty victim from VecCache consumes L2 bandwidth but is off the
    // critical path of this request.
    if (vc.writeback)
        reserve(l2_busy_until_, line, cfg_.l2.bytesPerCycle, vec_done);

    // Miss in VecCache: go to the unified L2.
    const Cycle l2_start =
        reserve(l2_busy_until_, line, cfg_.l2.bytesPerCycle, vec_done);
    const Cycle l2_done = l2_start + cfg_.l2.latency;

    CacheAccessResult l2r = l2_.access(line_addr, is_write);
    if (l2r.hit) {
        maybePrefetch(line_addr, now);
        return std::max(l2_done, lineReady(line_addr));
    }

    if (l2r.writeback) {
        reserve(dram_busy_until_, line, dramBpcAt(now), l2_done);
        dram_bytes_ += line;
        obs::emit(sink_, obs::EventKind::DramWrite, now, kNoCore,
                  l2r.victimLine, line, l2_done);
    }

    // Miss in L2: DRAM, bandwidth-limited at 64 GB/s (32 B/cycle @2 GHz).
    const Cycle dram_start =
        reserve(dram_busy_until_, line, dramBpcAt(now), l2_done);
    ++dram_reads_;
    dram_bytes_ += line;
    const Cycle ready = dram_start + dramLatencyAt(now);
    pushFill(line_addr, ready);
    obs::emit(sink_, obs::EventKind::DramRead, now, kNoCore, line_addr,
              line, ready);
    maybePrefetch(line_addr, now);
    return ready;
}

MemAccessResult
MemSystem::access(Addr addr, unsigned bytes, bool is_write, Cycle now)
{
    assert(bytes > 0);
    settle(now);
    ++accesses_;
    const unsigned shift = vec_cache_.lineShift();
    const Addr first = addr >> shift;
    const Addr last = (addr + bytes - 1) >> shift;

    // Port occupancy is proportional to the access width (the 2x64 B
    // VecCache ports move B bytes in B/128 cycles).
    const double start = std::max(static_cast<double>(now),
                                  vec_busy_until_);
    vec_busy_until_ =
        start + static_cast<double>(bytes) / cfg_.vecCache.bytesPerCycle;
    const Cycle vec_done =
        static_cast<Cycle>(start) + cfg_.vecCache.latency;

    Cycle done = now;
    for (Addr l = first; l <= last; ++l)
        done = std::max(done, accessLine(l << shift, is_write, now,
                                         vec_done));

    MemAccessResult res;
    res.queueRelease = done;
    // Stores retire into the store buffer once the VecCache port
    // accepted them; the fetch-for-ownership only holds the STQ entry.
    res.dataReady = is_write ? now + cfg_.vecCache.latency : done;
    return res;
}

MemAccessResult
MemSystem::accessStrided(Addr addr, unsigned elem_bytes,
                         std::int64_t stride, unsigned count,
                         bool is_write, Cycle now)
{
    assert(count > 0 && elem_bytes > 0);
    settle(now);
    ++accesses_;
    const unsigned shift = vec_cache_.lineShift();

    // Gathers move one element per port beat (16 B of port time each),
    // the classic SVE gather cost.
    const double start =
        std::max(static_cast<double>(now), vec_busy_until_);
    vec_busy_until_ = start + count * 16.0 /
                              cfg_.vecCache.bytesPerCycle;
    const Cycle vec_done =
        static_cast<Cycle>(start) + cfg_.vecCache.latency +
        (count * 16 + cfg_.vecCache.bytesPerCycle - 1) /
            cfg_.vecCache.bytesPerCycle;

    // Service every distinct line touched by the element addresses.
    Cycle done = now;
    Addr prev_line = ~static_cast<Addr>(0);
    for (unsigned k = 0; k < count; ++k) {
        const Addr a =
            addr + static_cast<Addr>(static_cast<std::int64_t>(k) *
                                     stride * elem_bytes);
        const Addr la = a >> shift << shift;
        if (la == prev_line)
            continue;
        prev_line = la;
        done = std::max(done, accessLine(la, is_write, now, vec_done));
    }

    MemAccessResult res;
    res.queueRelease = done;
    res.dataReady = is_write ? vec_done : done;
    return res;
}

Cycle
MemSystem::scalarAccess(Addr addr, bool is_write, Cycle now)
{
    // Scalar references ride the same L2/DRAM path; the private scalar
    // L1s from Table 4 are approximated by the VecCache lookup since the
    // kernels issue almost no scalar memory traffic.
    settle(now);
    return accessLine(addr >> l2_.lineShift() << l2_.lineShift(),
                      is_write, now, now + cfg_.vecCache.latency);
}

void
MemSystem::reset()
{
    vec_cache_.flush();
    l2_.flush();
    vec_busy_until_ = 0.0;
    l2_busy_until_ = 0;
    dram_busy_until_ = 0;
    line_ready_.clear();
    fills_.clear();
    frontier_.clear();
}

Cycle
MemSystem::nextEventAt(Cycle now) const
{
    // Fills up to the last access are gone; any that landed since then
    // are skipped by the search.
    const auto it = std::upper_bound(
        fills_.begin(), fills_.end(), now,
        [](Cycle t, const Fill &f) { return t < f.ready; });
    return it == fills_.end() ? kCycleNever : it->ready;
}

void
MemSystem::regStats(stats::Group &group) const
{
    vec_cache_.regStats(group);
    l2_.regStats(group);
    group.addCounter("dram.reads", &dram_reads_, "line fills from DRAM");
    group.addCounter("dram.bytes", &dram_bytes_, "bytes moved to/from DRAM");
    group.addCounter("mem.accesses", &accesses_, "vector accesses");
    group.addCounter("mem.prefetches", &prefetches_,
                     "stream-prefetched lines");
}

template <class Self, class Ar>
void
MemSystem::io(Self &s, Ar &ar, std::vector<std::pair<Addr, Cycle>> &ready,
              std::vector<Fill> &fills,
              std::vector<std::pair<Addr, Addr>> &frontier)
{
    ar.section("mem");
    ar.f64(s.vec_busy_until_);
    ar.u64(s.l2_busy_until_);
    ar.u64(s.dram_busy_until_);
    ar.len(ready);
    for (auto &[line, at] : ready) {
        ar.u64(line);
        ar.u64(at);
    }
    ar.len(fills);
    for (Fill &f : fills) {
        ar.u64(f.ready);
        ar.u64(f.line);
    }
    ar.len(frontier);
    for (auto &[region, line] : frontier) {
        ar.u64(region);
        ar.u64(line);
    }
    ar.counter(s.dram_reads_);
    ar.counter(s.dram_bytes_);
    ar.counter(s.accesses_);
    ar.counter(s.prefetches_);
    ar.io(s.vec_cache_);
    ar.io(s.l2_);
}

void
MemSystem::save(ckpt::Writer &w, Cycle now) const
{
    // Only fills landing after now: the resumed run accesses and
    // probes at now or later, where earlier fills change nothing.
    // Sorted copies of the hash maps keep the byte stream
    // deterministic.
    std::vector<std::pair<Addr, Cycle>> ready;
    for (const auto &e : line_ready_)
        if (e.second > now)
            ready.push_back(e);
    std::sort(ready.begin(), ready.end());
    std::vector<Fill> fills;
    for (const Fill &f : fills_)
        if (f.ready > now)
            fills.push_back(f);
    std::vector<std::pair<Addr, Addr>> fr(frontier_.begin(),
                                          frontier_.end());
    std::sort(fr.begin(), fr.end());
    io(*this, w, ready, fills, fr);
}

void
MemSystem::load(ckpt::Reader &r, Cycle now)
{
    std::vector<std::pair<Addr, Cycle>> ready;
    std::vector<Fill> fills;
    std::vector<std::pair<Addr, Addr>> fr;
    io(*this, r, ready, fills, fr);
    // nextEventAt() searches the fill list, so it must be in
    // completion order; nothing saved may have landed already.
    for (const auto &e : ready)
        ckpt::Reader::check(e.second > now,
                            "corrupt checkpoint (landed line fill)");
    for (std::size_t i = 0; i < fills.size(); ++i)
        ckpt::Reader::check(
            fills[i].ready > now &&
                (i == 0 || fills[i - 1].ready <= fills[i].ready),
            "corrupt checkpoint (fill list order)");
    line_ready_.clear();
    line_ready_.insert(ready.begin(), ready.end());
    fills_.assign(fills.begin(), fills.end());
    frontier_.clear();
    frontier_.insert(fr.begin(), fr.end());
}

void
MemSystem::printState(std::ostream &os) const
{
    os << "vec_busy_until " << vec_busy_until_ << '\n'
       << "l2_busy_until " << l2_busy_until_ << '\n'
       << "dram_busy_until " << dram_busy_until_ << '\n'
       << "inflight_fills " << inflightFills() << '\n'
       << "stream_frontiers " << frontier_.size() << '\n'
       << "accesses " << accesses_.value() << '\n'
       << "dram_reads " << dramReads() << '\n'
       << "dram_bytes " << dramBytes() << '\n'
       << "prefetches " << prefetches() << '\n';
    vec_cache_.printState(os);
    l2_.printState(os);
}

} // namespace occamy
