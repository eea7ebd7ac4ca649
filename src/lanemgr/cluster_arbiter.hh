/**
 * @file
 * ClusterArbiter: level 2 of the hierarchical lane manager.
 *
 * On a clustered machine (MachineConfig::Builder::topology(C, K) with
 * C > 1) each cluster owns one co-processor whose LaneMgr partitions
 * lanes across the cluster's cores exactly as in the paper. Above
 * those per-cluster managers sits this arbiter: every
 * interArbiterPeriod cycles it re-splits the machine's total DRAM
 * bandwidth across clusters in proportion to each cluster's measured
 * demand over the last window (with a 1 byte/cycle floor so no
 * cluster starves), and it accounts for work migration when the batch
 * scheduler adopts a queued workload onto a core outside its home
 * cluster.
 *
 * Everything is integer arithmetic over deterministic inputs, so
 * clustered runs stay byte-identical across hosts and thread counts.
 */

#ifndef OCCAMY_LANEMGR_CLUSTER_ARBITER_HH
#define OCCAMY_LANEMGR_CLUSTER_ARBITER_HH

#include <cstdint>
#include <vector>

#include "ckpt/fwd.hh"
#include "common/types.hh"

namespace occamy
{

/** Demand-proportional inter-cluster DRAM bandwidth arbiter. */
class ClusterArbiter
{
  public:
    /**
     * @param clusters Cluster count (>= 2 in practice; the System
     *        only instantiates an arbiter on clustered machines).
     * @param total_bpc Machine-total DRAM bandwidth in bytes/cycle.
     * @param period Cycles between rebalances.
     */
    ClusterArbiter(unsigned clusters, unsigned total_bpc,
                   unsigned period);

    unsigned clusters() const { return nclusters_; }
    unsigned period() const { return period_; }
    unsigned totalBpc() const { return total_bpc_; }

    /** Currently granted bytes/cycle per cluster (sums to totalBpc(),
     *  every entry >= 1). Starts as an equal split with the remainder
     *  handed to the lowest-numbered clusters, like busShare(). */
    const std::vector<unsigned> &shares() const { return shares_; }

    /**
     * Rebalance at cycle @p now given each cluster's cumulative DRAM
     * byte counter. The per-window demand is the delta against the
     * previous rebalance; a window with zero total demand keeps an
     * equal split. @return the new per-cluster shares.
     */
    const std::vector<unsigned> &
    rebalance(Cycle now, const std::vector<std::uint64_t> &dram_bytes);

    /** Rebalances published so far. */
    std::uint64_t rebalances() const { return rebalances_; }

    /** Record one cross-cluster adoption of a queued workload. */
    void noteMigration(unsigned from_cluster, unsigned to_cluster);

    std::uint64_t migratedIn(unsigned cluster) const
    {
        return migrated_in_[cluster];
    }
    std::uint64_t migratedOut(unsigned cluster) const
    {
        return migrated_out_[cluster];
    }
    std::uint64_t migrations() const { return migrations_; }

    /**
     * Time-weighted mean of @p cluster's granted share over
     * [0, @p end_cycle], counting the currently granted share up to
     * @p end_cycle. Reporting only — does not advance arbiter state.
     */
    double avgShare(unsigned cluster, Cycle end_cycle) const;

    /** Checkpoint hooks: grants, window baselines, share integrals and
     *  the migration/rebalance counters. */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

  private:
    template <class Self, class Ar> static void io(Self &s, Ar &ar);

    unsigned nclusters_;
    unsigned total_bpc_;
    unsigned period_;

    std::vector<unsigned> shares_;
    /** Cumulative per-cluster DRAM bytes at the last rebalance. */
    std::vector<std::uint64_t> last_bytes_;
    /** Integral of granted share over time (bytes/cycle * cycles),
     *  for time-weighted reporting. */
    std::vector<std::uint64_t> share_integral_;
    Cycle last_update_ = 0;

    std::uint64_t rebalances_ = 0;
    std::uint64_t migrations_ = 0;
    std::vector<std::uint64_t> migrated_in_;
    std::vector<std::uint64_t> migrated_out_;
};

} // namespace occamy

#endif // OCCAMY_LANEMGR_CLUSTER_ARBITER_HH
