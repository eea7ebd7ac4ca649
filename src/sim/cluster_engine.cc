#include "sim/cluster_engine.hh"

#include <algorithm>
#include <cassert>

namespace occamy
{

ClusterEngine::ClusterEngine(unsigned id, const MachineConfig &view,
                             const std::string &stats_prefix,
                             bool full_width, bool fast_forward)
    : id_(id), view_(view), full_width_(full_width),
      fast_forward_(fast_forward), mem_(view_), coproc_(view_, mem_),
      mem_group_(stats_prefix + ".mem"), cp_group_(stats_prefix + ".coproc")
{
}

ClusterEngine::~ClusterEngine() = default;

void
ClusterEngine::addCore(std::unique_ptr<ScalarCore> core)
{
    cores_.push_back(std::move(core));
    live_.push_back(false);
    busy_buckets_.emplace_back();
    alloc_buckets_.emplace_back();
}

void
ClusterEngine::attachSink(obs::EventSink *sink)
{
    if (sink)
        buffer_ = std::make_unique<obs::BufferSink>(*sink);
    mem_.setEventSink(buffer_.get());
    coproc_.setEventSink(buffer_.get());
    for (auto &core : cores_)
        core->setEventSink(buffer_.get());
}

void
ClusterEngine::regStats()
{
    mem_.regStats(mem_group_);
    coproc_.regStats(cp_group_);
}

void
ClusterEngine::tickCycle(Cycle now)
{
    coproc_.tick(now);
    for (auto &core : cores_)
        core->tick(now);

    // Under FTS one full-width unit serves this cluster's cores, so
    // busy lanes are capped cluster-wide and attributed proportionally.
    // The cap is what still works: hard faults shrink the shared unit.
    fts_scale_ = 1.0;
    if (full_width_) {
        unsigned sum = 0;
        for (unsigned i = 0; i < numCores(); ++i)
            sum += coproc_.busyLanes(static_cast<CoreId>(i));
        const unsigned cap = coproc_.usableLanes();
        fts_scale_ = sum > cap ? static_cast<double>(cap) / sum : 1.0;
    }

    const std::size_t b = static_cast<std::size_t>(now / kTimelineBucket);
    for (unsigned i = 0; i < numCores(); ++i) {
        const unsigned alloc =
            coproc_.allocatedLanes(static_cast<CoreId>(i));
        double busy = coproc_.busyLanes(static_cast<CoreId>(i));
        if (full_width_)
            busy *= fts_scale_;
        else
            busy = std::min<double>(busy, alloc);
        busy_integral_ += busy;

        if (busy_buckets_[i].size() <= b) {
            busy_buckets_[i].resize(b + 1, 0.0);
            alloc_buckets_[i].resize(b + 1, 0.0);
        }
        busy_buckets_[i][b] += busy;
        alloc_buckets_[i][b] += alloc;
    }
}

void
ClusterEngine::synthesizeSkipped(Cycle from, Cycle to)
{
    const std::size_t last_b = static_cast<std::size_t>(to / kTimelineBucket);
    for (unsigned i = 0; i < numCores(); ++i) {
        if (busy_buckets_[i].size() <= last_b) {
            busy_buckets_[i].resize(last_b + 1, 0.0);
            alloc_buckets_[i].resize(last_b + 1, 0.0);
        }
        const unsigned alloc =
            coproc_.allocatedLanes(static_cast<CoreId>(i));
        if (alloc == 0)
            continue;
        for (Cycle cy = from; cy <= to;) {
            const std::size_t b =
                static_cast<std::size_t>(cy / kTimelineBucket);
            const Cycle bucket_last =
                (static_cast<Cycle>(b) + 1) * kTimelineBucket - 1;
            const Cycle upto = std::min(bucket_last, to);
            alloc_buckets_[i][b] += static_cast<double>(alloc) *
                                    static_cast<double>(upto - cy + 1);
            cy = upto + 1;
        }
    }
}

void
ClusterEngine::skipTo(Cycle to)
{
    if (at_ >= to)
        return;
    assert(quiet_ && to <= qwake_);
    synthesizeSkipped(at_, to - 1);
    coproc_.skipCycles(to - at_);
    if (at_ != skip_end_) {
        ++ff_.spans;
        span_from_ = at_;
    }
    ff_.cyclesSkipped += to - at_;
    ff_.longestSpan = std::max(ff_.longestSpan, to - span_from_);
    at_ = skip_end_ = to;
}

void
ClusterEngine::takeFf(FastForwardStats &into)
{
    into.cyclesTicked += ff_.cyclesTicked;
    into.cyclesSkipped += ff_.cyclesSkipped;
    into.spans += ff_.spans;
    into.longestSpan = std::max(into.longestSpan, ff_.longestSpan);
    ff_ = {};
}

void
ClusterEngine::beginWindow(Cycle now)
{
    skipTo(now);
    assert(at_ == now);
    quiet_ = false;
    stopped_ = false;
    edges_.clear();
    live_count_ = 0;
    for (unsigned i = 0; i < numCores(); ++i) {
        live_[i] = !drained(static_cast<CoreId>(i));
        live_count_ += live_[i];
    }
}

void
ClusterEngine::tickWindow(Cycle limit)
{
    while (!stopped() && at_ < limit) {
        if (quiet_ && at_ < qwake_) {
            skipTo(std::min(qwake_, limit));
            continue;
        }
        const Cycle t = at_++;
        ++ff_.cyclesTicked;
        quiet_ = false;
        if (buffer_)
            buffer_->setCycle(t);
        tickCycle(t);

        for (unsigned i = 0; live_count_ > 0 && i < numCores(); ++i) {
            const CoreId c = static_cast<CoreId>(i);
            if (live_[i] && drained(c)) {
                live_[i] = false;
                --live_count_;
                edges_.push_back(c);
            }
        }
        Probe p;
        if (fast_forward_ && probeLive(t, &p))
            markQuiet(p);
        if (!edges_.empty()) {
            stopped_ = true;
            stop_at_ = t;
        }
    }
}

bool
ClusterEngine::probeLive(Cycle t, Probe *probe) const
{
    *probe = Probe{};
    probe->coproc = coproc_.nextEventAt(t);
    if (probe->coproc > t + 1) {
        for (const auto &core : cores_)
            probe->core = std::min(probe->core, core->nextEventAt(t));
        if (probe->core > t + 1)
            probe->mem = mem_.nextEventAt(t);
    }
    return std::min({probe->coproc, probe->core, probe->mem}) > t + 1;
}

void
ClusterEngine::markQuiet(const Probe &p)
{
    quiet_ = true;
    qwake_ = std::min({p.coproc, p.core, p.mem});
}

} // namespace occamy
