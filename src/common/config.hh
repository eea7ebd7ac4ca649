/**
 * @file
 * Machine configuration: every micro-architectural parameter from Table 4
 * of the paper, plus the sharing-policy selector distinguishing the four
 * evaluated SIMD architectures (Fig. 1).
 */

#ifndef OCCAMY_COMMON_CONFIG_HH
#define OCCAMY_COMMON_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace occamy
{

/**
 * The SIMD sharing architectures: the four compared in the paper
 * (Fig. 1) plus registered extensions. The enum is a compact identity
 * for results and configs; every behavioral difference lives in the
 * policy::SharingModel registered for each value (src/policy/).
 */
enum class SharingPolicy
{
    /** Core-private fixed-width SIMD units (Fig. 1a), e.g. Intel Xeon. */
    Private,
    /** Fine temporal sharing of one full-width unit (Fig. 1b), "FTS". */
    Temporal,
    /** Static spatial partitioning of the lanes (Fig. 1c), "VLS". */
    StaticSpatial,
    /** Occamy's elastic spatial sharing (Fig. 1d). */
    Elastic,
    /** Work-conserving VLS: statically entitled lanes, but an idle
     *  core's share is lent to active cores until it returns — the
     *  ablation point between VLS and Occamy. */
    StaticSpatialWC,
};

/** @return the paper's short name for a policy
 *  (Private/FTS/VLS/Occamy/VLS-WC). */
const char *policyName(SharingPolicy p);

/** Cache parameters for one level of the hierarchy. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 0;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    unsigned latency = 1;           ///< Hit latency in cycles.
    unsigned bytesPerCycle = 64;    ///< Sustained bandwidth into this level.
};

/**
 * Full machine configuration.
 *
 * Defaults reproduce the paper's 2-core setup (Table 4): 2 GHz, 32 lanes
 * (8 ExeBUs) shared by 2 cores, vector issue width 4 (2 exec + 2 ld/st),
 * 160x128b VRegs and 64x16b PRegs per RegBlk, 128 KB VecCache @ 5 cycles,
 * 8 MB unified L2 @ 18 cycles, 64 GB/s DRAM.
 */
struct MachineConfig
{
    /** Number of scalar cores in the whole machine (all clusters). */
    unsigned numCores = 2;

    /** Clusters the machine is organized into. Each cluster owns one
     *  co-processor serving numCores/numClusters scalar cores; the
     *  paper's flat 2-4-core machines are the degenerate 1-cluster
     *  case. Use Builder::topology(C, K) to configure. */
    unsigned numClusters = 1;

    /** Sharing policy (which of the four architectures to model). */
    SharingPolicy policy = SharingPolicy::Elastic;

    /** Clock in GHz (for roofline GFLOP/s / GB/s conversions). */
    double ghz = 2.0;

    /** Homogeneous 128-bit execution units per cluster co-processor
     *  (8 => 32 lanes). On a 1-cluster machine this is the whole
     *  machine's SIMD width. */
    unsigned numExeBUs = 8;

    /** 128-bit physical vector registers per RegBlk. */
    unsigned vregsPerBlk = 160;

    /** 16-bit physical predicate registers per RegBlk. */
    unsigned pregsPerBlk = 64;

    /** SIMD compute instructions issueable per core per cycle. */
    unsigned computeIssueWidth = 2;

    /** SIMD ld/st micro-ops issueable per core per cycle. */
    unsigned memIssueWidth = 2;

    /** Instructions a scalar core transmits to Occamy per cycle. */
    unsigned transmitWidth = 4;

    /** Per-core instruction-pool (in-Occamy queue) capacity. */
    unsigned instPoolEntries = 32;

    /** Per-core issue-queue capacity. */
    unsigned issueQueueEntries = 64;

    /** Per-core reorder-buffer capacity. */
    unsigned robEntries = 128;

    /** Commit width per core per cycle. */
    unsigned commitWidth = 4;

    /** Load-queue (LHQ) entries per LSU. */
    unsigned loadQueueEntries = 32;

    /** Store-queue (STQ) entries per LSU. */
    unsigned storeQueueEntries = 32;

    /** FP pipeline latency of an ExeBU in cycles. */
    unsigned fpLatency = 4;

    /** Cycles the LaneMgr takes to produce a new partition plan. */
    unsigned laneMgrLatency = 8;

    /** Pipeline depth charged when a scalar core retires an instruction
     *  before transmitting it to Occamy (non-speculative hand-off). */
    unsigned retireDelay = 4;

    /** 128 KB 8-way vector cache @ 5 cycles, 2x64 B/cycle. */
    CacheConfig vecCache{128 * 1024, 8, 64, 5, 128};

    /** 8 MB shared unified L2 @ 18 cycles, 64 B/cycle. */
    CacheConfig l2{8 * 1024 * 1024, 16, 64, 18, 64};

    /** DRAM: 64 GB/s total (32 B/cycle @ 2 GHz), ~120-cycle latency. */
    unsigned dramLatency = 120;
    unsigned dramBytesPerCycle = 32;

    /** Lines the stream prefetcher pulls ahead on a DRAM demand miss. */
    unsigned prefetchDegree = 32;

    /** Iterations between partition-monitor checks (compiler knob). */
    unsigned monitorPeriod = 8;

    /** OS context-switch cost when dispatching a queued workload onto
     *  a core (covers saving/restoring the EM-SIMD registers after the
     *  pipelines drain, Section 5). */
    unsigned contextSwitchCycles = 200;

    /** Cycles between inter-cluster bandwidth rebalances: the level-2
     *  lane manager's re-planning period (clustered topologies only). */
    unsigned interArbiterPeriod = 4096;

    /** Extra dispatch cycles charged when the batch scheduler migrates
     *  a queued workload onto a core outside its home cluster (cold
     *  VecCache plus cross-cluster state movement). */
    unsigned clusterMigrationCycles = 400;

    /**
     * Boot-time lane-partition plan in ExeBUs per core, used by the
     * Private and VLS architectures (empty = equal split). For VLS the
     * system computes it offline with staticPartition().
     */
    std::vector<unsigned> staticPlan;

    /** Scalar cores per cluster (topologies are uniform by
     *  construction: Builder::topology(C, K) => C*K cores). */
    unsigned coresPerCluster() const { return numCores / numClusters; }

    /** Cluster owning global core id @p core. */
    unsigned clusterOf(unsigned core) const
    {
        return core / coresPerCluster();
    }

    /** Index of global core id @p core within its cluster. */
    unsigned localCore(unsigned core) const
    {
        return core % coresPerCluster();
    }

    /** Total lanes (derived, machine-wide across all clusters). */
    unsigned totalLanes() const
    {
        return numClusters * numExeBUs * kLanesPerBu;
    }

    /**
     * ExeBUs statically owned by core @p core under an equal split of
     * its cluster's co-processor: the floor share plus one of the
     * remainder units, handed to the lowest-numbered cores of the
     * cluster — so every ExeBU is assigned even when numExeBUs does
     * not divide evenly.
     */
    unsigned busShare(unsigned core) const
    {
        const unsigned local_cores = coresPerCluster();
        const unsigned rem = numExeBUs % local_cores;
        return numExeBUs / local_cores + (localCore(core) < rem ? 1 : 0);
    }

    /** @return config preset for a registered architecture. */
    static MachineConfig forPolicy(SharingPolicy p, unsigned cores = 2);

    class Builder;
};

/**
 * Named, chainable MachineConfig construction:
 *
 *     auto cfg = MachineConfig::Builder(SharingPolicy::Elastic)
 *                    .topology(2, 4)
 *                    .build();
 *
 * Unless exeBUs() is called, build() sizes the machine at the paper's
 * 4 ExeBUs (16 lanes) per core, matching forPolicy(). New knobs get a
 * named setter here instead of widening a positional signature.
 */
class MachineConfig::Builder
{
  public:
    explicit Builder(SharingPolicy p) { cfg_.policy = p; }

    /** Flat machine with @p n cores: shorthand for topology(1, n),
     *  kept as the back-compat entry point for the paper's configs. */
    Builder &cores(unsigned n)
    {
        cfg_.numCores = n;
        cfg_.numClusters = 1;
        return *this;
    }

    /**
     * Clustered machine: @p clusters clusters of @p cores_per_cluster
     * scalar cores, each cluster owning one co-processor. build()
     * validates the shape (non-zero counts, busShare() feasibility,
     * area-model priceability) and throws std::invalid_argument with
     * an actionable message on a bad topology.
     */
    Builder &topology(unsigned clusters, unsigned cores_per_cluster)
    {
        cfg_.numClusters = clusters;
        cfg_.numCores = clusters * cores_per_cluster;
        return *this;
    }

    /** Inter-cluster arbiter re-planning period in cycles. */
    Builder &interArbiterPeriod(unsigned cycles)
    {
        cfg_.interArbiterPeriod = cycles;
        return *this;
    }

    /** Cross-cluster work-migration dispatch penalty in cycles. */
    Builder &clusterMigrationCycles(unsigned cycles)
    {
        cfg_.clusterMigrationCycles = cycles;
        return *this;
    }

    /** ExeBUs per cluster; overrides the 4-per-core default. */
    Builder &exeBUs(unsigned n)
    {
        cfg_.numExeBUs = n;
        bus_set_ = true;
        return *this;
    }

    /** Boot-time lane plan in ExeBUs per core (Private/VLS). */
    Builder &staticPlan(std::vector<unsigned> plan)
    {
        cfg_.staticPlan = std::move(plan);
        return *this;
    }

    Builder &contextSwitch(unsigned cycles)
    {
        cfg_.contextSwitchCycles = cycles;
        return *this;
    }

    Builder &monitorPeriod(unsigned iters)
    {
        cfg_.monitorPeriod = iters;
        return *this;
    }

    Builder &transmitWidth(unsigned insts)
    {
        cfg_.transmitWidth = insts;
        return *this;
    }

    Builder &laneMgrLatency(unsigned cycles)
    {
        cfg_.laneMgrLatency = cycles;
        return *this;
    }

    Builder &prefetchDegree(unsigned lines)
    {
        cfg_.prefetchDegree = lines;
        return *this;
    }

    Builder &loadQueueEntries(unsigned n)
    {
        cfg_.loadQueueEntries = n;
        return *this;
    }

    Builder &vregsPerBlk(unsigned n)
    {
        cfg_.vregsPerBlk = n;
        return *this;
    }

    /**
     * Finalize the config. Unless exeBUs() was called, sizes each
     * cluster at 4 ExeBUs per core. Validates the topology (non-zero
     * cluster/core counts, every core gets a nonzero busShare(), the
     * area model can price the cluster count) and a configured
     * staticPlan (one entry per cluster core, sum within the cluster
     * width), throwing std::invalid_argument with an actionable
     * message on a misconfiguration.
     */
    MachineConfig build() const;

  private:
    MachineConfig cfg_;
    bool bus_set_ = false;
};

} // namespace occamy

#endif // OCCAMY_COMMON_CONFIG_HH
