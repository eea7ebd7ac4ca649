/**
 * @file
 * Tests for the co-processor's building blocks: the resource table
 * (Table 1 registers + <AL>), the two configuration tables
 * (Section 4.2.1), the physical register-file model, the LSU queues
 * and the memory ordering buffer (Table 2).
 */

#include <gtest/gtest.h>

#include "coproc/lsu.hh"
#include "coproc/regfile.hh"
#include "coproc/tables.hh"
#include "core/mob.hh"
#include "mem/memsystem.hh"

namespace occamy
{
namespace
{

TEST(ResourceTable, RetargetConservesUnits)
{
    ResourceTable rt(2, 8);
    EXPECT_EQ(rt.al(), 8u);
    rt.retarget(0, 3);
    EXPECT_EQ(rt.core(0).vl, 3u);
    EXPECT_EQ(rt.al(), 5u);
    EXPECT_TRUE(rt.core(0).status);
    rt.retarget(1, 5);
    EXPECT_EQ(rt.al(), 0u);
    rt.retarget(0, 1);           // Shrink returns units.
    EXPECT_EQ(rt.al(), 2u);
    rt.retarget(0, 0);           // Release.
    EXPECT_EQ(rt.al(), 3u);
}

TEST(ResourceTable, AllOIsInCoreOrder)
{
    ResourceTable rt(2, 8);
    rt.core(1).oi = PhaseOI{0.5, 0.5, MemLevel::Dram};
    const auto ois = rt.allOIs();
    ASSERT_EQ(ois.size(), 2u);
    EXPECT_FALSE(ois[0].active());
    EXPECT_TRUE(ois[1].active());
}

TEST(ConfigTable, AssignReleaseOwnership)
{
    ConfigTable tbl(8, 2);
    EXPECT_EQ(tbl.countFree(), 8u);
    EXPECT_TRUE(tbl.assign(0, 3));
    EXPECT_EQ(tbl.countOwned(0), 3u);
    EXPECT_EQ(tbl.countFree(), 5u);
    EXPECT_TRUE(tbl.assign(1, 5));
    EXPECT_FALSE(tbl.assign(0, 1));   // Nothing left.
    tbl.release(1);
    EXPECT_EQ(tbl.countFree(), 5u);
    EXPECT_TRUE(tbl.assign(0, 5));
    EXPECT_EQ(tbl.countOwned(0), 8u);
}

TEST(RegFile, PerCorePoolsAreIndependent)
{
    MachineConfig cfg = MachineConfig::forPolicy(SharingPolicy::Elastic);
    cfg.vregsPerBlk = 4;
    RegFileModel rf(cfg);
    EXPECT_EQ(rf.freeCount(0), 4u);
    // Exhaust core 0.
    for (int i = 0; i < 4; ++i)
        EXPECT_GE(rf.alloc(0), 0);
    EXPECT_EQ(rf.alloc(0), -1);
    // Core 1 unaffected.
    EXPECT_EQ(rf.freeCount(1), 4u);
    EXPECT_GE(rf.alloc(1), 0);
}

TEST(RegFile, RenameTracksPreviousMapping)
{
    MachineConfig cfg = MachineConfig::forPolicy(SharingPolicy::Elastic);
    RegFileModel rf(cfg);
    const std::int32_t p1 = rf.alloc(0);
    EXPECT_EQ(rf.rename(0, 5, p1), -1);
    EXPECT_EQ(rf.mapping(0, 5), p1);
    const std::int32_t p2 = rf.alloc(0);
    EXPECT_EQ(rf.rename(0, 5, p2), p1);
    rf.free(0, p1);
    EXPECT_EQ(rf.mapping(0, 5), p2);
}

TEST(RegFile, ResetCoreReclaimsEverything)
{
    MachineConfig cfg = MachineConfig::forPolicy(SharingPolicy::Elastic);
    cfg.vregsPerBlk = 8;
    RegFileModel rf(cfg);
    for (int i = 0; i < 5; ++i) {
        const std::int32_t p = rf.alloc(0);
        rf.rename(0, i, p);
    }
    EXPECT_EQ(rf.freeCount(0), 3u);
    rf.resetCore(0);
    EXPECT_EQ(rf.freeCount(0), 8u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(rf.mapping(0, i), -1);
}

TEST(RegFile, DoubleFreeAfterResetIsIgnored)
{
    MachineConfig cfg = MachineConfig::forPolicy(SharingPolicy::Elastic);
    cfg.vregsPerBlk = 8;
    RegFileModel rf(cfg);
    const std::int32_t p = rf.alloc(0);
    rf.resetCore(0);
    rf.free(0, p);   // In-flight commit after reset: must not corrupt.
    EXPECT_EQ(rf.freeCount(0), 8u);
}

TEST(RegFile, SharedModePinsArchContexts)
{
    MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Temporal, 2);
    RegFileModel rf(cfg);
    EXPECT_TRUE(rf.shared());
    // 160 rows minus 2 cores x 32 pinned architectural contexts.
    EXPECT_EQ(rf.freeCount(0), 160u - 64u);
    // One shared pool: core 1 sees the same freelist.
    EXPECT_EQ(rf.freeCount(1), rf.freeCount(0));
    const std::int32_t p = rf.alloc(0);
    EXPECT_GE(p, 0);
    EXPECT_EQ(rf.freeCount(1), 160u - 64u - 1u);
    rf.free(0, p);
}

TEST(RegFile, SharedModeScalesRowsAtFourCores)
{
    MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Temporal, 4);
    RegFileModel rf(cfg);
    // Per-core register budget preserved: 160 * (4/2) rows - 128 pinned.
    EXPECT_EQ(rf.freeCount(0), 320u - 128u);
}

TEST(RegFile, ReadyTracking)
{
    MachineConfig cfg = MachineConfig::forPolicy(SharingPolicy::Elastic);
    RegFileModel rf(cfg);
    const std::int32_t p = rf.alloc(1);
    rf.setReadyAt(p, 123);
    EXPECT_EQ(rf.readyAt(p), 123u);
}

TEST(Lsu, CapacityBackpressure)
{
    MachineConfig cfg;
    cfg.loadQueueEntries = 2;
    cfg.storeQueueEntries = 1;
    cfg.prefetchDegree = 0;
    MemSystem mem(cfg);
    Lsu lsu(cfg);

    EXPECT_TRUE(lsu.canIssueLoad());
    lsu.issueLoad(mem, 0x0, 64, 0);      // Cold miss: long latency.
    lsu.issueLoad(mem, 0x1000, 64, 0);
    EXPECT_FALSE(lsu.canIssueLoad());
    EXPECT_TRUE(lsu.canIssueStore());
    lsu.issueStore(mem, 0x2000, 64, 0);
    EXPECT_FALSE(lsu.canIssueStore());
    EXPECT_FALSE(lsu.empty());

    // Entries release once the accesses complete.
    lsu.tick(1'000'000);
    EXPECT_TRUE(lsu.canIssueLoad());
    EXPECT_TRUE(lsu.canIssueStore());
    EXPECT_TRUE(lsu.empty());
    EXPECT_EQ(lsu.loadsIssued(), 2u);
    EXPECT_EQ(lsu.storesIssued(), 1u);
}

TEST(Lsu, ReleasesInCompletionOrder)
{
    MachineConfig cfg;
    cfg.loadQueueEntries = 2;
    cfg.prefetchDegree = 0;
    MemSystem mem(cfg);
    Lsu lsu(cfg);
    // First access cold (slow), second hits the just-filled line (fast
    // at a later issue time).
    lsu.issueLoad(mem, 0x0, 64, 0);
    const Cycle fast = lsu.issueLoad(mem, 0x0, 64, 400);
    lsu.tick(fast);
    // The fast one released even though the slot order differs.
    EXPECT_TRUE(lsu.canIssueLoad());
}

TEST(Mob, OverlapDetection)
{
    Mob mob;
    EXPECT_TRUE(mob.insert(100, 64, /*is_store=*/true, 500));
    // Loads conflict with outstanding stores on overlap.
    EXPECT_TRUE(mob.conflicts(130, 8, false));
    EXPECT_FALSE(mob.conflicts(164, 8, false));
    // Stores conflict with anything outstanding.
    EXPECT_TRUE(mob.insert(200, 64, /*is_store=*/false, 600));
    EXPECT_TRUE(mob.conflicts(200, 4, true));
    // Loads do not conflict with loads.
    EXPECT_FALSE(mob.conflicts(200, 4, false));
}

TEST(Mob, ReadyCycleIsMaxOfConflicts)
{
    Mob mob;
    mob.insert(0, 64, true, 500);
    mob.insert(32, 64, true, 800);
    EXPECT_EQ(mob.readyCycle(40, 8, false), 800u);
    EXPECT_EQ(mob.readyCycle(8, 8, false), 500u);
    EXPECT_EQ(mob.readyCycle(4096, 8, false), 0u);
}

TEST(Mob, RetireDropsCompleted)
{
    Mob mob(2);
    mob.insert(0, 64, true, 100);
    mob.insert(64, 64, true, 200);
    EXPECT_FALSE(mob.insert(128, 64, true, 300));   // Full.
    mob.retire(150);
    EXPECT_EQ(mob.size(), 1u);
    EXPECT_TRUE(mob.insert(128, 64, true, 300));
    EXPECT_FALSE(mob.conflicts(0, 8, true));
}

} // namespace
} // namespace occamy
