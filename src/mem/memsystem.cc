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

void
MemSystem::recordDram(Cycle now, obs::EventKind kind, Addr line_addr,
                      unsigned bytes, Cycle ready) const
{
    if (!sink_ || !sink_->wants(kind))
        return;
    obs::Event ev;
    ev.cycle = now;
    ev.kind = kind;
    ev.a = line_addr;
    ev.b = bytes;
    ev.x = static_cast<double>(ready);
    sink_->record(ev);
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
MemSystem::lineReady(Addr line, Cycle now)
{
    auto it = line_ready_.find(line);
    if (it == line_ready_.end())
        return 0;
    const Cycle ready = it->second;
    if (ready <= now)
        line_ready_.erase(it);
    return ready;
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
        line_ready_[pf] = start + dramLatencyAt(now);
        pushFill(start + dramLatencyAt(now));
        recordDram(now, obs::EventKind::DramRead, pf, line,
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
        return std::max(vec_done, lineReady(line_addr, now));
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
        return std::max(l2_done, lineReady(line_addr, now));
    }

    if (l2r.writeback) {
        reserve(dram_busy_until_, line, dramBpcAt(now), l2_done);
        dram_bytes_ += line;
        recordDram(now, obs::EventKind::DramWrite, l2r.victimLine, line,
                   l2_done);
    }

    // Miss in L2: DRAM, bandwidth-limited at 64 GB/s (32 B/cycle @2 GHz).
    const Cycle dram_start =
        reserve(dram_busy_until_, line, dramBpcAt(now), l2_done);
    ++dram_reads_;
    dram_bytes_ += line;
    const Cycle ready = dram_start + dramLatencyAt(now);
    line_ready_[line_addr] = ready;
    pushFill(ready);
    recordDram(now, obs::EventKind::DramRead, line_addr, line, ready);
    maybePrefetch(line_addr, now);
    return ready;
}

MemAccessResult
MemSystem::access(Addr addr, unsigned bytes, bool is_write, Cycle now)
{
    assert(bytes > 0);
    ++accesses_;
    const unsigned line = cfg_.vecCache.lineBytes;
    const Addr first = addr / line;
    const Addr last = (addr + bytes - 1) / line;

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
        done = std::max(done, accessLine(l * line, is_write, now,
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
    ++accesses_;
    const unsigned line = cfg_.vecCache.lineBytes;

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
        const Addr la = a / line * line;
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
    return accessLine((addr / cfg_.l2.lineBytes) * cfg_.l2.lineBytes,
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
    frontier_.clear();
    pending_fills_.clear();
    fills_head_ = 0;
}

void
MemSystem::pushFill(Cycle ready)
{
    if (pending_fills_.empty() || ready >= pending_fills_.back())
        pending_fills_.push_back(ready);
    else
        pending_fills_.insert(
            std::upper_bound(pending_fills_.begin() + fills_head_,
                             pending_fills_.end(), ready),
            ready);
}

Cycle
MemSystem::nextEventAt(Cycle now)
{
    while (fills_head_ < pending_fills_.size() &&
           pending_fills_[fills_head_] <= now)
        ++fills_head_;
    if (fills_head_ == pending_fills_.size()) {
        pending_fills_.clear();
        fills_head_ = 0;
        return kCycleNever;
    }
    if (fills_head_ > 4096 && 2 * fills_head_ > pending_fills_.size()) {
        pending_fills_.erase(pending_fills_.begin(),
                             pending_fills_.begin() + fills_head_);
        fills_head_ = 0;
    }
    return pending_fills_[fills_head_];
}

Cycle
MemSystem::peekEventAt(Cycle now)
{
    const auto it = std::upper_bound(pending_fills_.begin() + fills_head_,
                                     pending_fills_.end(), now);
    return it == pending_fills_.end() ? kCycleNever : *it;
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

void
MemSystem::save(ckpt::Writer &w) const
{
    w.section("mem");
    w.f64(vec_busy_until_);
    w.u64(l2_busy_until_);
    w.u64(dram_busy_until_);

    // Sorted copies of the hash maps keep the byte stream deterministic.
    std::vector<std::pair<Addr, Cycle>> ready(line_ready_.begin(),
                                              line_ready_.end());
    std::sort(ready.begin(), ready.end());
    w.u64(ready.size());
    for (const auto &[line, at] : ready) {
        w.u64(line);
        w.u64(at);
    }

    // Fills still in flight (or not yet dropped), ascending.
    w.u64(pending_fills_.size() - fills_head_);
    for (std::size_t i = fills_head_; i < pending_fills_.size(); ++i)
        w.u64(pending_fills_[i]);

    std::vector<std::pair<Addr, Addr>> fr(frontier_.begin(),
                                          frontier_.end());
    std::sort(fr.begin(), fr.end());
    w.u64(fr.size());
    for (const auto &[region, line] : fr) {
        w.u64(region);
        w.u64(line);
    }

    w.u64(dram_reads_.value());
    w.u64(dram_bytes_.value());
    w.u64(accesses_.value());
    w.u64(prefetches_.value());

    vec_cache_.save(w);
    l2_.save(w);
}

void
MemSystem::load(ckpt::Reader &r)
{
    r.expectSection("mem");
    vec_busy_until_ = r.f64();
    l2_busy_until_ = r.u64();
    dram_busy_until_ = r.u64();

    line_ready_.clear();
    const std::size_t nready = r.arr();
    for (std::size_t i = 0; i < nready; ++i) {
        const Addr line = r.u64();
        const Cycle at = r.u64();
        line_ready_.emplace(line, at);
    }

    pending_fills_.clear();
    fills_head_ = 0;
    const std::size_t nfills = r.arr();
    for (std::size_t i = 0; i < nfills; ++i)
        pushFill(r.u64());

    frontier_.clear();
    const std::size_t nfr = r.arr();
    for (std::size_t i = 0; i < nfr; ++i) {
        const Addr region = r.u64();
        const Addr line = r.u64();
        frontier_.emplace(region, line);
    }

    dram_reads_.set(r.u64());
    dram_bytes_.set(r.u64());
    accesses_.set(r.u64());
    prefetches_.set(r.u64());

    vec_cache_.load(r);
    l2_.load(r);
}

void
MemSystem::printState(std::ostream &os) const
{
    os << "vec_busy_until " << vec_busy_until_ << '\n'
       << "l2_busy_until " << l2_busy_until_ << '\n'
       << "dram_busy_until " << dram_busy_until_ << '\n'
       << "inflight_fills " << line_ready_.size() << '\n'
       << "stream_frontiers " << frontier_.size() << '\n'
       << "accesses " << accesses_.value() << '\n'
       << "dram_reads " << dramReads() << '\n'
       << "dram_bytes " << dramBytes() << '\n'
       << "prefetches " << prefetches() << '\n';
    vec_cache_.printState(os);
    l2_.printState(os);
}

} // namespace occamy
