#include "lanemgr/cluster_arbiter.hh"

#include <cassert>

#include "ckpt/ckpt.hh"

namespace occamy
{

namespace
{

/** Equal split of @p total over @p n with the remainder handed to the
 *  lowest indices — the same convention as MachineConfig::busShare. */
std::vector<unsigned>
equalSplit(unsigned n, unsigned total)
{
    std::vector<unsigned> out(n, total / n);
    for (unsigned k = 0; k < total % n; ++k)
        ++out[k];
    for (auto &s : out)
        if (s == 0)
            s = 1;
    return out;
}

} // namespace

ClusterArbiter::ClusterArbiter(unsigned clusters, unsigned total_bpc,
                               unsigned period)
    : nclusters_(clusters), total_bpc_(total_bpc), period_(period),
      shares_(equalSplit(clusters, total_bpc)),
      last_bytes_(clusters, 0), share_integral_(clusters, 0),
      migrated_in_(clusters, 0), migrated_out_(clusters, 0)
{
    assert(clusters >= 1 && period >= 1);
}

const std::vector<unsigned> &
ClusterArbiter::rebalance(Cycle now,
                          const std::vector<std::uint64_t> &dram_bytes)
{
    assert(dram_bytes.size() == nclusters_);

    // Close the elapsed window under the outgoing grants.
    for (unsigned k = 0; k < nclusters_; ++k)
        share_integral_[k] += static_cast<std::uint64_t>(shares_[k]) *
                              (now - last_update_);
    last_update_ = now;

    std::uint64_t total_demand = 0;
    std::vector<std::uint64_t> demand(nclusters_);
    for (unsigned k = 0; k < nclusters_; ++k) {
        demand[k] = dram_bytes[k] - last_bytes_[k];
        last_bytes_[k] = dram_bytes[k];
        total_demand += demand[k];
    }

    if (total_demand == 0 || total_bpc_ <= nclusters_) {
        shares_ = equalSplit(nclusters_, total_bpc_);
        ++rebalances_;
        return shares_;
    }

    // Guarantee 1 byte/cycle per cluster, then split the rest in
    // proportion to demand: integer floors first, then the leftover
    // units to the largest fractional remainders (ties to the lowest
    // cluster id) — fully deterministic, no floating point.
    const unsigned pool = total_bpc_ - nclusters_;
    std::vector<std::uint64_t> remainder(nclusters_);
    unsigned granted = 0;
    for (unsigned k = 0; k < nclusters_; ++k) {
        const auto scaled = static_cast<unsigned __int128>(demand[k]) *
                            pool;
        shares_[k] = 1 + static_cast<unsigned>(scaled / total_demand);
        remainder[k] = static_cast<std::uint64_t>(scaled % total_demand);
        granted += shares_[k];
    }
    while (granted < total_bpc_) {
        unsigned best = 0;
        for (unsigned k = 1; k < nclusters_; ++k)
            if (remainder[k] > remainder[best])
                best = k;
        ++shares_[best];
        remainder[best] = 0;
        ++granted;
    }

    ++rebalances_;
    return shares_;
}

void
ClusterArbiter::noteMigration(unsigned from_cluster, unsigned to_cluster)
{
    ++migrations_;
    ++migrated_out_[from_cluster];
    ++migrated_in_[to_cluster];
}

double
ClusterArbiter::avgShare(unsigned cluster, Cycle end_cycle) const
{
    if (end_cycle == 0)
        return static_cast<double>(shares_[cluster]);
    const std::uint64_t integral =
        share_integral_[cluster] +
        static_cast<std::uint64_t>(shares_[cluster]) *
            (end_cycle - last_update_);
    return static_cast<double>(integral) /
           static_cast<double>(end_cycle);
}

template <class Self, class Ar>
void
ClusterArbiter::io(Self &s, Ar &ar)
{
    ar.u64(s.rebalances_);
    ar.u64(s.migrations_);
    ar.u64(s.last_update_);
    for (unsigned k = 0; k < s.nclusters_; ++k) {
        ar.u32(s.shares_[k]);
        ar.u64(s.last_bytes_[k]);
        ar.u64(s.share_integral_[k]);
        ar.u64(s.migrated_in_[k]);
        ar.u64(s.migrated_out_[k]);
    }
}

void ClusterArbiter::save(ckpt::Writer &w) const { io(*this, w); }
void ClusterArbiter::load(ckpt::Reader &r) { io(*this, r); }

} // namespace occamy
