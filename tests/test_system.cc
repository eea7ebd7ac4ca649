/**
 * @file
 * End-to-end system tests: the co-run driver across the four
 * architectures, the paper's headline behaviours (elastic sharing wins
 * on the compute core without hurting the memory core; temporal
 * sharing pays renaming stalls; static sharing cannot reclaim released
 * lanes), determinism, and metric sanity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <thread>

#include "host_memory.hh"
#include "sim/system.hh"
#include "sim/trace.hh"
#include "workloads/phases.hh"
#include "workloads/suite.hh"

namespace occamy
{
namespace
{

using workloads::makeNamedPhase;

std::vector<kir::Loop>
memWorkload()
{
    return {makeNamedPhase("rho_eos1", 16384),
            makeNamedPhase("rho_eos4", 16384)};
}

std::vector<kir::Loop>
compWorkload(std::uint64_t trip = 131072)
{
    return {makeNamedPhase("wsm51", trip)};
}

RunResult
runPairOn(SharingPolicy p)
{
    System sys(MachineConfig::forPolicy(p, 2));
    sys.setWorkload(0, "mem", memWorkload());
    sys.setWorkload(1, "comp", compWorkload());
    return sys.run({.maxCycles = 10'000'000});
}

TEST(System, BootTouchesNoCacheSets)
{
    // The paper's 6+16 machine holds an 8 MB L2 and a 128 KB VecCache;
    // their tag arrays cost host memory only where lines land, so a
    // booted instance that has not run is cheap to keep in a pool. The
    // first boot pays one-time set-up (and allocator arenas), so the
    // second is measured.
    const workloads::Workload w6 = workloads::specWorkload(6);
    const workloads::Workload w16 = workloads::specWorkload(16);
    double grown = 0.0;
    for (int boot = 0; boot < 2; ++boot) {
        const double before = test::residentAnonMb();
        System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 2));
        sys.setWorkload(0, w6.name, w6.loops);
        sys.setWorkload(1, w16.name, w16.loops);
        sys.boot();
        grown = test::residentAnonMb() - before;
        sys.finalize();
    }
    EXPECT_LT(grown, 1.0);
}

TEST(System, AllPoliciesComplete)
{
    for (SharingPolicy p :
         {SharingPolicy::Private, SharingPolicy::Temporal,
          SharingPolicy::StaticSpatial, SharingPolicy::Elastic}) {
        const RunResult r = runPairOn(p);
        EXPECT_FALSE(r.timedOut) << policyName(p);
        EXPECT_GT(r.cores[0].finish, 0u) << policyName(p);
        EXPECT_GT(r.cores[1].finish, 0u) << policyName(p);
        EXPECT_GT(r.simdUtil, 0.0) << policyName(p);
        EXPECT_LE(r.simdUtil, 1.0 + 1e-9) << policyName(p);
    }
}

TEST(System, DeterministicAcrossRuns)
{
    const RunResult a = runPairOn(SharingPolicy::Elastic);
    const RunResult b = runPairOn(SharingPolicy::Elastic);
    EXPECT_EQ(a.cores[0].finish, b.cores[0].finish);
    EXPECT_EQ(a.cores[1].finish, b.cores[1].finish);
    EXPECT_DOUBLE_EQ(a.simdUtil, b.simdUtil);
    EXPECT_EQ(a.vlSwitches, b.vlSwitches);
}

TEST(System, ElasticBeatsStaticOnComputeCore)
{
    const RunResult priv = runPairOn(SharingPolicy::Private);
    const RunResult vls = runPairOn(SharingPolicy::StaticSpatial);
    const RunResult occ = runPairOn(SharingPolicy::Elastic);
    // Core1 (compute) ordering: Occamy < VLS < Private finish time.
    EXPECT_LT(occ.cores[1].finish, vls.cores[1].finish);
    EXPECT_LT(vls.cores[1].finish, priv.cores[1].finish);
}

TEST(System, MemoryCorePerformanceIsPreserved)
{
    const RunResult priv = runPairOn(SharingPolicy::Private);
    for (SharingPolicy p : {SharingPolicy::Temporal,
                            SharingPolicy::StaticSpatial,
                            SharingPolicy::Elastic}) {
        const RunResult r = runPairOn(p);
        const double ratio = static_cast<double>(r.cores[0].finish) /
                             static_cast<double>(priv.cores[0].finish);
        EXPECT_LT(ratio, 1.15) << policyName(p);
    }
}

TEST(System, ElasticAchievesBestUtilization)
{
    const RunResult priv = runPairOn(SharingPolicy::Private);
    const RunResult occ = runPairOn(SharingPolicy::Elastic);
    EXPECT_GT(occ.simdUtil, priv.simdUtil);
}

TEST(System, OnlyTemporalPaysRenameStalls)
{
    for (SharingPolicy p :
         {SharingPolicy::Private, SharingPolicy::StaticSpatial,
          SharingPolicy::Elastic}) {
        const RunResult r = runPairOn(p);
        EXPECT_EQ(r.cores[0].renameRegStallCycles +
                      r.cores[1].renameRegStallCycles,
                  0u)
            << policyName(p);
    }
    const RunResult fts = runPairOn(SharingPolicy::Temporal);
    EXPECT_GT(fts.cores[1].renameRegStallCycles, 0u);
}

TEST(System, OnlyElasticSwitchesMidPhase)
{
    const RunResult occ = runPairOn(SharingPolicy::Elastic);
    EXPECT_GT(occ.vlSwitches, 4u);   // Beyond phase entries/exits.
    EXPECT_GT(occ.plansMade, 0u);
    const RunResult vls = runPairOn(SharingPolicy::StaticSpatial);
    EXPECT_EQ(vls.plansMade, 0u);
}

TEST(System, DramTrafficIsPolicyInvariant)
{
    // The same workloads move the same data regardless of sharing.
    const RunResult priv = runPairOn(SharingPolicy::Private);
    for (SharingPolicy p : {SharingPolicy::Temporal,
                            SharingPolicy::StaticSpatial,
                            SharingPolicy::Elastic}) {
        const RunResult r = runPairOn(p);
        const double ratio = static_cast<double>(r.dramBytes) /
                             static_cast<double>(priv.dramBytes);
        EXPECT_GT(ratio, 0.9) << policyName(p);
        EXPECT_LT(ratio, 1.1) << policyName(p);
    }
}

TEST(System, PhaseResultsCoverTheRun)
{
    const RunResult r = runPairOn(SharingPolicy::Elastic);
    ASSERT_EQ(r.cores[0].phases.size(), 2u);
    ASSERT_EQ(r.cores[1].phases.size(), 1u);
    for (const auto &core : r.cores)
        for (const auto &ph : core.phases) {
            EXPECT_GT(ph.end, ph.start);
            EXPECT_GT(ph.computeIssued, 0u);
            EXPECT_GT(ph.issueRate, 0.0);
            EXPECT_LE(ph.issueRate, 2.0 + 0.1);
        }
}

TEST(System, TimelinesMatchRunLength)
{
    const RunResult r = runPairOn(SharingPolicy::Elastic);
    for (const auto &core : r.cores) {
        ASSERT_FALSE(core.busyLanesTimeline.empty());
        EXPECT_EQ(core.busyLanesTimeline.size(),
                  core.allocLanesTimeline.size());
        for (double lanes : core.allocLanesTimeline)
            EXPECT_LE(lanes, 32.0 + 1e-9);
    }
}

TEST(System, IdleCoreIsHarmless)
{
    System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 2));
    sys.setWorkload(0, "solo", compWorkload(65536));
    sys.setWorkload(1, "idle", {});
    const RunResult r = sys.run({.maxCycles = 10'000'000});
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.cores[0].finish, 0u);
    EXPECT_EQ(r.cores[1].computeIssued, 0u);
    // The solo workload eventually claims the full machine.
    EXPECT_EQ(r.cores[0].phases[0].lastVl, 8u);
}

TEST(System, SoloElasticTwiceAsFastAsSoloPrivate)
{
    // 32 lanes vs 16 lanes on a compute-bound kernel.
    auto solo = [](SharingPolicy p) {
        System sys(MachineConfig::forPolicy(p, 2));
        sys.setWorkload(0, "solo", compWorkload(65536));
        sys.setWorkload(1, "idle", {});
        return sys.run({.maxCycles = 10'000'000}).cores[0].finish;
    };
    const double ratio = static_cast<double>(solo(SharingPolicy::Private)) /
                         static_cast<double>(solo(SharingPolicy::Elastic));
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.4);
}

TEST(System, FourCoreMachineRuns)
{
    System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 4));
    sys.setWorkload(0, "m0", memWorkload());
    sys.setWorkload(1, "m1", memWorkload());
    sys.setWorkload(2, "c0", compWorkload(65536));
    sys.setWorkload(3, "c1", compWorkload(65536));
    const RunResult r = sys.run({.maxCycles = 20'000'000});
    EXPECT_FALSE(r.timedOut);
    for (const auto &core : r.cores)
        EXPECT_GT(core.finish, 0u);
}

TEST(System, MaxCyclesCapSetsTimedOut)
{
    System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 2));
    sys.setWorkload(0, "mem", memWorkload());
    sys.setWorkload(1, "comp", compWorkload());
    const RunResult r = sys.run({.maxCycles = 100});
    EXPECT_TRUE(r.timedOut);
}

TEST(System, WallClockKillReportsTheCyclesItRan)
{
    // A 1 ns limit kills this 2x2 run at the first clock read, at the
    // top of a window start at or after cycle 65,536, before that
    // cycle ticks.
    System sys(MachineConfig::Builder(SharingPolicy::Elastic)
                   .topology(2, 2)
                   .build());
    for (unsigned c = 0; c < 4; ++c)
        sys.setWorkload(static_cast<CoreId>(c), "comp",
                        compWorkload(1 << 20));
    FastForwardStats ff;
    RunOptions opt;
    opt.ffStats = &ff;
    opt.wallClockLimitSec = 1e-9;
    const RunResult r = sys.run(opt);
    ASSERT_TRUE(r.wallKilled);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GE(ff.cyclesSimulated, 65'536u);
    EXPECT_EQ(ff.cyclesTicked + ff.cyclesSkipped, 2 * ff.cyclesSimulated);
    EXPECT_EQ(r.cycles, ff.cyclesSimulated);
}

TEST(System, CorunHelperMatchesManualSetup)
{
    const RunResult a = corun(
        SharingPolicy::Private,
        {{"mem", memWorkload()}, {"comp", compWorkload()}},
        {.maxCycles = 10'000'000});
    const RunResult b = runPairOn(SharingPolicy::Private);
    EXPECT_EQ(a.cores[0].finish, b.cores[0].finish);
    EXPECT_EQ(a.cores[1].finish, b.cores[1].finish);
}

TEST(System, BatchFcfsSchedulesAllQueuedWorkloads)
{
    System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 2));
    sys.setWorkload(0, "idle0", {});
    sys.setWorkload(1, "idle1", {});
    for (int i = 0; i < 5; ++i)
        sys.enqueueWorkload("job" + std::to_string(i),
                            compWorkload(16384));
    const RunResult r = sys.run({.maxCycles = 20'000'000});
    ASSERT_FALSE(r.timedOut);
    ASSERT_EQ(r.batch.size(), 5u);
    for (const auto &b : r.batch) {
        EXPECT_GT(b.finished, b.dispatched) << b.name;
        EXPECT_LT(b.core, 2u);
    }
    // FCFS: dispatch order follows queue order.
    for (std::size_t i = 1; i < r.batch.size(); ++i)
        EXPECT_GE(r.batch[i].dispatched, r.batch[i - 1].dispatched);
}

TEST(System, BatchPaysContextSwitchCost)
{
    MachineConfig cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    cfg.contextSwitchCycles = 1000;
    System sys(cfg);
    sys.setWorkload(0, "idle0", {});
    sys.setWorkload(1, "idle1", {});
    sys.enqueueWorkload("a", compWorkload(16384));
    const RunResult r = sys.run({.maxCycles = 20'000'000});
    ASSERT_EQ(r.batch.size(), 1u);
    EXPECT_GE(r.batch[0].dispatched, 1000u);
}

TEST(System, BatchMixesWithPinnedWorkloads)
{
    System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 2));
    sys.setWorkload(0, "pinned", memWorkload());
    sys.setWorkload(1, "idle", {});
    sys.enqueueWorkload("queued", compWorkload(32768));
    const RunResult r = sys.run({.maxCycles = 20'000'000});
    ASSERT_FALSE(r.timedOut);
    ASSERT_EQ(r.batch.size(), 1u);
    // The idle core grabs the queued workload immediately-ish, long
    // before the pinned memory workload completes.
    EXPECT_EQ(r.batch[0].core, 1u);
    EXPECT_LT(r.batch[0].dispatched, r.cores[0].finish);
}

TEST(System, OiAwareSchedulerPairsComplementaryWorkloads)
{
    System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 2));
    sys.setDispatcher(traffic::dispatcherByName("oi"));
    sys.setWorkload(0, "idle0", {});
    sys.setWorkload(1, "idle1", {});
    // Adversarial order: memory, memory, compute, compute.
    sys.enqueueWorkload("mem_a", memWorkload());
    sys.enqueueWorkload("mem_b", memWorkload());
    sys.enqueueWorkload("comp_a", compWorkload(65536));
    sys.enqueueWorkload("comp_b", compWorkload(65536));
    const RunResult r = sys.run({.maxCycles = 40'000'000});
    ASSERT_FALSE(r.timedOut);
    ASSERT_EQ(r.batch.size(), 4u);
    // The second dispatch must be a compute workload (complementary to
    // the memory workload just placed), not FCFS's mem_b.
    EXPECT_EQ(r.batch[1].name.substr(0, 4), "comp");
}

TEST(System, OiAwareNeverLosesWorkloads)
{
    System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 2));
    sys.setDispatcher(traffic::dispatcherByName("oi"));
    sys.setWorkload(0, "idle0", {});
    sys.setWorkload(1, "idle1", {});
    for (int i = 0; i < 6; ++i)
        sys.enqueueWorkload("j" + std::to_string(i),
                            i % 2 ? compWorkload(16384) : memWorkload());
    const RunResult r = sys.run({.maxCycles = 40'000'000});
    ASSERT_FALSE(r.timedOut);
    EXPECT_EQ(r.batch.size(), 6u);
    for (const auto &b : r.batch)
        EXPECT_GT(b.finished, b.dispatched) << b.name;
}

TEST(System, OiAwareBeatsAdversarialFcfsOnOccamy)
{
    auto drain = [](const char *sched) {
        System sys(MachineConfig::forPolicy(SharingPolicy::Elastic, 2));
        sys.setDispatcher(traffic::dispatcherByName(sched));
        sys.setWorkload(0, "idle0", {});
        sys.setWorkload(1, "idle1", {});
        sys.enqueueWorkload("m0", memWorkload());
        sys.enqueueWorkload("m1", memWorkload());
        sys.enqueueWorkload("c0", compWorkload(131072));
        sys.enqueueWorkload("c1", compWorkload(131072));
        return sys.run({.maxCycles = 60'000'000}).cycles;
    };
    EXPECT_LT(drain("oi"), drain("fcfs") * 101 / 100);
}

TEST(System, VlsBatchGetsEqualStaticShares)
{
    MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::StaticSpatial, 2);
    System sys(cfg);
    sys.setWorkload(0, "idle0", {});
    sys.setWorkload(1, "idle1", {});
    sys.enqueueWorkload("a", compWorkload(16384));
    sys.enqueueWorkload("b", compWorkload(16384));
    const RunResult r = sys.run({.maxCycles = 40'000'000});
    ASSERT_FALSE(r.timedOut);
    EXPECT_EQ(r.batch.size(), 2u);
}

TEST(System, StatsTextContainsHierarchyCounters)
{
    const RunResult r = runPairOn(SharingPolicy::Elastic);
    EXPECT_NE(r.statsText.find("system.mem.vec_cache.hits"),
              std::string::npos);
    EXPECT_NE(r.statsText.find("system.mem.dram.bytes"),
              std::string::npos);
    EXPECT_NE(r.statsText.find("system.coproc.vl_switches"),
              std::string::npos);
}

TEST(System, OverheadCountersArePopulatedForElastic)
{
    const RunResult r = runPairOn(SharingPolicy::Elastic);
    EXPECT_GT(r.cores[0].monitorInsts + r.cores[1].monitorInsts, 0u);
    EXPECT_GT(r.cores[0].reconfigWaitCycles +
                  r.cores[1].reconfigWaitCycles,
              0u);
    // Overheads are small fractions (Fig. 15's regime).
    for (const auto &core : r.cores) {
        EXPECT_LT(core.monitorOverhead(4), 0.05);
        EXPECT_LT(core.reconfigOverhead(), 0.05);
    }
}

// ---- Clustered topologies (topology(C, K), hierarchical lane mgr). --

TEST(System, FlatRunReportsNoClusterArtifacts)
{
    const RunResult r = runPairOn(SharingPolicy::Elastic);
    EXPECT_TRUE(r.clusters.empty());
    EXPECT_EQ(r.arbiterRebalances, 0u);
    // The gated JSON block must be absent on a flat machine so golden
    // traces are byte-identical to the pre-cluster format.
    const std::string js = trace::toJson(r);
    EXPECT_EQ(js.find("\"clusters\""), std::string::npos);
    EXPECT_EQ(r.statsText.find("arbiter_rebalances"),
              std::string::npos);
}

RunResult
runClustered(SharingPolicy p, unsigned clusters, unsigned per,
             const RunOptions &opt = {.maxCycles = 10'000'000})
{
    System sys(MachineConfig::Builder(p).topology(clusters, per).build());
    for (unsigned c = 0; c < clusters * per; ++c)
        sys.setWorkload(static_cast<CoreId>(c),
                        c % 2 ? "comp" : "mem",
                        c % 2 ? compWorkload(32768) : memWorkload());
    return sys.run(opt);
}

TEST(System, ClusteredMachineRunsAllCores)
{
    const RunResult r = runClustered(SharingPolicy::Elastic, 2, 2);
    EXPECT_FALSE(r.timedOut);
    ASSERT_EQ(r.cores.size(), 4u);
    for (const auto &core : r.cores)
        EXPECT_GT(core.finish, 0u);
    ASSERT_EQ(r.clusters.size(), 2u);
    EXPECT_GT(r.arbiterRebalances, 0u);
    // The arbiter conserves machine bandwidth across its grants.
    const MachineConfig cfg =
        MachineConfig::Builder(SharingPolicy::Elastic)
            .topology(2, 2)
            .build();
    unsigned granted = 0;
    for (const auto &cl : r.clusters) {
        EXPECT_GE(cl.dramShareBpc, 1u);
        granted += cl.dramShareBpc;
    }
    EXPECT_EQ(granted, cfg.dramBytesPerCycle);
    EXPECT_NE(r.statsText.find("system.cluster0.mem"),
              std::string::npos);
    EXPECT_NE(r.statsText.find("system.cluster1.coproc"),
              std::string::npos);
    EXPECT_NE(r.statsText.find("arbiter_rebalances"),
              std::string::npos);
}

TEST(System, ClusteredRunIsDeterministic)
{
    const RunResult a = runClustered(SharingPolicy::Elastic, 2, 2);
    const RunResult b = runClustered(SharingPolicy::Elastic, 2, 2);
    EXPECT_EQ(trace::toJson(a), trace::toJson(b));
}

TEST(System, ClusteredFastForwardMatchesTickedRun)
{
    const RunResult ticked = runClustered(
        SharingPolicy::Elastic, 2, 2,
        {.maxCycles = 10'000'000, .fastForward = false});
    const RunResult ff = runClustered(
        SharingPolicy::Elastic, 2, 2,
        {.maxCycles = 10'000'000, .fastForward = true});
    // The arbiter-period wake candidate keeps skipped runs exact.
    EXPECT_EQ(trace::toJson(ticked), trace::toJson(ff));
}

TEST(System, SixteenCoreClusteredMachineCompletes)
{
    const RunResult r = runClustered(SharingPolicy::Elastic, 4, 4);
    EXPECT_FALSE(r.timedOut);
    ASSERT_EQ(r.cores.size(), 16u);
    for (const auto &core : r.cores)
        EXPECT_GT(core.finish, 0u);
    ASSERT_EQ(r.clusters.size(), 4u);
}

TEST(System, NonPowerOfTwoClusterCountsMatchAcrossThreads)
{
    // Each cluster gets the largest power-of-two number of whole L2
    // sets within 1/C of the L2 (2 of 8 MB for C = 3, 1 MB for C = 6);
    // a fractional slice once aborted these machines at boot.
    for (const unsigned clusters : {3u, 6u}) {
        SCOPED_TRACE(clusters);
        const RunResult serial = runClustered(
            SharingPolicy::Elastic, clusters, 2,
            {.maxCycles = 10'000'000, .simThreads = 1});
        const RunResult threaded = runClustered(
            SharingPolicy::Elastic, clusters, 2,
            {.maxCycles = 10'000'000, .simThreads = 3});
        EXPECT_FALSE(serial.timedOut);
        EXPECT_EQ(serial.clusters.size(), clusters);
        EXPECT_EQ(trace::toJson(serial), trace::toJson(threaded));
        EXPECT_EQ(serial.statsText, threaded.statsText);
    }

    System sys(MachineConfig::Builder(SharingPolicy::Elastic)
                   .topology(3, 2)
                   .build());
    sys.boot();
    EXPECT_NE(sys.inspect("system.cluster2.mem")
                  .find("l2.size_bytes 2097152\n"),
              std::string::npos);
    sys.finalize();
}

TEST(System, BatchWorkMigratesAcrossClusters)
{
    // Two 1-core clusters. Core 1 is pinned to a long compute phase;
    // core 0 drains the queue, whose entries alternate home clusters
    // (q % C), so it must adopt cluster 1's entries — the migration
    // path, with its extra switch cost and arbiter accounting.
    System sys(MachineConfig::Builder(SharingPolicy::Elastic)
                   .topology(2, 1)
                   .build());
    sys.setWorkload(0, "idle", {});
    sys.setWorkload(1, "comp", compWorkload(262144));
    sys.enqueueWorkload("q0", compWorkload(4096));
    sys.enqueueWorkload("q1", compWorkload(4096));
    const RunResult r = sys.run({.maxCycles = 10'000'000});
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.batch.size(), 2u);
    ASSERT_EQ(r.clusters.size(), 2u);
    EXPECT_EQ(r.clusters[0].migratedIn, 1u);
    EXPECT_EQ(r.clusters[1].migratedOut, 1u);
}

TEST(System, ClusteredComponentPathsAreInspectable)
{
    System sys(MachineConfig::Builder(SharingPolicy::Elastic)
                   .topology(2, 2)
                   .build());
    for (unsigned c = 0; c < 4; ++c)
        sys.setWorkload(static_cast<CoreId>(c), "mem", memWorkload());
    sys.boot({});
    const auto paths = sys.componentPaths();
    EXPECT_NE(std::find(paths.begin(), paths.end(), "system.arbiter"),
              paths.end());
    EXPECT_NE(std::find(paths.begin(), paths.end(),
                        "system.cluster1.mem"),
              paths.end());
    EXPECT_NE(sys.inspect("system.arbiter").find("rebalances"),
              std::string::npos);
    EXPECT_NE(sys.inspect("system.cluster1.coproc").size(), 0u);
    // Un-prefixed paths stay valid as cluster-0 aliases.
    EXPECT_NE(sys.inspect("system.mem").size(), 0u);
    // Every advertised path inspects, including cores on cluster 1.
    for (const std::string &p : paths)
        EXPECT_NO_THROW(sys.inspect(p)) << p;
    // Malformed numeric components are rejected, not half-parsed.
    for (const char *bad :
         {"system.core1zzz", "system.corex", "system.coproc.core1x",
          "system.cluster1x.mem", "system.core", "system.core-1"}) {
        try {
            sys.inspect(bad);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("unknown component path: ") + bad);
        }
    }
    EXPECT_THROW(sys.inspect("system.core4"), std::out_of_range);
    EXPECT_THROW(sys.inspect("system.coproc.core4"), std::out_of_range);
    sys.finalize();
}

/** Process CPU seconds so far, every thread included. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** A warm System with a worker pool costs no CPU between advance()
 *  calls: once their spin budget runs out, idle TickPool workers park
 *  on the epoch instead of spinning or yielding forever. */
TEST(TickPool, IdleWorkersDoNotBurnCpu)
{
    System sys(MachineConfig::Builder(SharingPolicy::Elastic)
                   .topology(4, 4)
                   .build());
    for (unsigned c = 0; c < 16; ++c)
        sys.setWorkload(static_cast<CoreId>(c), "w" + std::to_string(c),
                        {makeNamedPhase("wsm51", 4096)});
    RunOptions opt;
    opt.simThreads = 4;
    sys.boot(opt);
    EXPECT_FALSE(sys.advance(1'000));

    const double before = processCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_LT(processCpuSeconds() - before, 0.050);

    // Parked workers still wake for the next round.
    EXPECT_TRUE(sys.advance());
    EXPECT_FALSE(sys.finalize().timedOut);
}

} // namespace
} // namespace occamy
