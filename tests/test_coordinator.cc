/**
 * @file
 * The cycle loop's steps, driven one at a time without advance():
 * dispatch selection and settling, the fast-forward decision and its
 * tie order, the window horizon, the round limits, and a cluster
 * engine's skip accounting. Each Coordinator test
 * builds a Coordinator on a System the way System::boot does, then sets
 * the loop state a step reads.
 */

#include <gtest/gtest.h>

#include "obs/sink.hh"
#include "sim/coordinator.hh"
#include "workloads/phases.hh"

namespace occamy
{
namespace
{

std::vector<kir::Loop>
comp(std::uint64_t trip = 4096)
{
    return {workloads::makeNamedPhase("wsm51", trip)};
}

/** C clusters of K cores, every core idle, @p queued plain entries. */
std::unique_ptr<System>
machine(unsigned clusters, unsigned k, unsigned queued)
{
    auto sys = std::make_unique<System>(
        MachineConfig::Builder(SharingPolicy::Elastic)
            .topology(clusters, k)
            .build());
    for (unsigned c = 0; c < clusters * k; ++c)
        sys->setWorkload(static_cast<CoreId>(c), "idle", {});
    for (unsigned q = 0; q < queued; ++q)
        sys->enqueueWorkload("q" + std::to_string(q), comp());
    return sys;
}

TEST(Coordinator, SelectNextPrefersHomeClusterThenAdopts)
{
    // Two 1-core clusters; entry q's home cluster is q % 2.
    const auto sys = machine(2, 1, 4);
    Coordinator co(*sys, {});
    EXPECT_EQ(co.selectNext(0), 0u);
    EXPECT_EQ(co.selectNext(1), 1u);
    // No home entry left for cluster 1: it adopts cluster 0's work.
    co.dispatched[1] = co.dispatched[3] = true;
    EXPECT_EQ(co.selectNext(1), 0u);

    // A flat machine has no home clusters: plain FCFS.
    const auto flat = machine(1, 2, 4);
    Coordinator fco(*flat, {});
    fco.dispatched[0] = true;
    EXPECT_EQ(fco.selectNext(0), 1u);
    EXPECT_EQ(fco.selectNext(1), 1u);
}

TEST(Coordinator, SettleChargesMigrationAndCountsIt)
{
    // Two 2-core clusters; entries 0 and 2 live on cluster 0, entry 1
    // on cluster 1.
    const auto sys = machine(2, 2, 3);
    Coordinator co(*sys, {});
    const Cycle cs = co.cfg.contextSwitchCycles;
    const Cycle mig = co.cfg.clusterMigrationCycles;
    co.now = 1000;

    co.settle(2);                           // Home pick: entry 1.
    EXPECT_EQ(co.pending_wl[2], 1u);
    EXPECT_EQ(co.dispatch_at[2], 1000 + cs);
    EXPECT_EQ(co.arbiter->migrations(), 0u);

    co.settle(3);                           // Adopts entry 0.
    EXPECT_EQ(co.pending_wl[3], 0u);
    EXPECT_EQ(co.dispatch_at[3], 1000 + cs + mig);
    EXPECT_EQ(co.arbiter->migrations(), 1u);
    EXPECT_EQ(co.arbiter->migratedOut(0), 1u);
    EXPECT_EQ(co.arbiter->migratedIn(1), 1u);
    EXPECT_EQ(co.undispatched, 1u);

    co.settle(0);                           // Home pick: entry 2.
    EXPECT_EQ(co.dispatch_at[0], 1000 + cs);
    EXPECT_EQ(co.arbiter->migrations(), 1u);

    // With the queue empty a settling core retires.
    co.now = 1200;
    co.settle(1);
    EXPECT_TRUE(co.done[1]);
    EXPECT_EQ(co.finish[1], 1200u);
    EXPECT_EQ(co.last_finish, 1200u);
}

/** The WakeSource of the last SchedFastForward event in @p sink. */
WakeSource
lastWhy(obs::RingSink &sink)
{
    const obs::TraceBuffer tb = sink.take();
    for (auto it = tb.events.rbegin(); it != tb.events.rend(); ++it)
        if (it->kind == obs::EventKind::SchedFastForward)
            return static_cast<WakeSource>(it->b);
    ADD_FAILURE() << "no SchedFastForward event";
    return WakeSource::Cap;
}

TEST(Coordinator, FastForwardTieOrderAndCaps)
{
    // Two clusters: probes from two engines, and the arbiter's period
    // boundary (4096) in the wake table.
    const auto sys = machine(2, 1, 0);
    obs::RingSink sink(1024, obs::kEvEngine);
    RunOptions opt;
    opt.sink = &sink;
    Coordinator co(*sys, opt);
    ASSERT_EQ(co.cfg.interArbiterPeriod, 4096u);
    co.now = 1000;
    auto probe = [&](Cycle cp, Cycle core, Cycle mem) {
        co.probes[0] = {cp, core, mem};
        co.probes[1] = {kCycleNever, kCycleNever, kCycleNever};
        return co.fastForwardFrom();
    };

    // Ties go to the earlier tier: coproc < core < mem < wake table.
    EXPECT_EQ(probe(4096, 4096, 4096), 4096u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Coproc);
    EXPECT_EQ(probe(kCycleNever, 4096, 4096), 4096u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Core);
    EXPECT_EQ(probe(kCycleNever, kCycleNever, 4096), 4096u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Mem);
    EXPECT_EQ(probe(kCycleNever, kCycleNever, kCycleNever), 4096u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Arbiter);
    // The second engine's probe counts within its tier.
    co.probes[0] = {kCycleNever, 3000, kCycleNever};
    co.probes[1] = {2500, kCycleNever, kCycleNever};
    EXPECT_EQ(co.fastForwardFrom(), 2500u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Coproc);

    // The pause and the periodic checkpoint cap the jump.
    co.stop_at = 3000;
    EXPECT_EQ(probe(3500, 3500, 3500), 3000u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Checkpoint);
    co.next_ckpt = 2000;
    EXPECT_EQ(probe(3500, 3500, 3500), 2000u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Checkpoint);

    // Nothing to skip: the next cycle, and no event.
    EXPECT_EQ(probe(1001, kCycleNever, kCycleNever), 1001u);
    EXPECT_EQ(sink.size(), 0u);
}

TEST(ClusterEngine, SkipsCountSpansAndExtendContiguousOnes)
{
    // No core attached: every tick leaves the engine quiescent.
    ClusterEngine e(0, MachineConfig::forPolicy(SharingPolicy::Elastic, 2),
                    "system", false, true);
    e.markQuiet({100, kCycleNever, kCycleNever});
    e.skipTo(10);
    e.skipTo(30);           // Starts where the last skip ended.
    FastForwardStats ff;
    e.takeFf(ff);
    EXPECT_EQ(ff.cyclesTicked, 0u);
    EXPECT_EQ(ff.cyclesSkipped, 30u);
    EXPECT_EQ(ff.spans, 1u);
    EXPECT_EQ(ff.longestSpan, 30u);

    // The span grows on after a take without counting again; a tick
    // ends it, and the next skip starts a new one.
    e.skipTo(40);
    e.beginWindow(40);
    e.tickWindow(41);
    e.skipTo(60);
    EXPECT_EQ(e.at(), 60u);
    e.takeFf(ff);
    EXPECT_EQ(ff.cyclesTicked, 1u);
    EXPECT_EQ(ff.cyclesSkipped, 30u + 10 + 19);
    EXPECT_EQ(ff.spans, 2u);
    EXPECT_EQ(ff.longestSpan, 40u);
}

TEST(Coordinator, FastForwardJumpsToTheCap)
{
    const auto sys = machine(1, 1, 0);
    obs::RingSink sink(64, obs::kEvEngine);
    RunOptions opt;
    opt.sink = &sink;
    opt.maxCycles = 5000;
    Coordinator co(*sys, opt);
    co.now = 10;
    co.probes[0] = {kCycleNever, kCycleNever, kCycleNever};
    EXPECT_EQ(co.fastForwardFrom(), 5000u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Cap);
    // A dispatch deadline in the wake table wins before the cap.
    co.dispatch_at[0] = 700;
    EXPECT_EQ(co.fastForwardFrom(), 700u);
    EXPECT_EQ(lastWhy(sink), WakeSource::Dispatch);
}

TEST(Coordinator, WindowHorizonSources)
{
    System sys(MachineConfig::Builder(SharingPolicy::Elastic)
                   .topology(1, 2)
                   .contextSwitch(1'000'000)
                   .build());
    sys.setWorkload(0, "idle", {});
    sys.setWorkload(1, "idle", {});
    RunOptions opt;
    opt.maxCycles = 100'000'000;
    {
        Coordinator co(sys, opt);
        EXPECT_EQ(co.windowHorizon(), 1u);          // Cycle 0.
        co.now = 10;
        EXPECT_EQ(co.windowHorizon(), 10u + 1'000'000 + 1);
        co.dispatch_at[1] = 500;                    // Post-tick wake.
        EXPECT_EQ(co.windowHorizon(), 501u);
        co.stop_at = 400;
        EXPECT_EQ(co.windowHorizon(), 400u);
        co.next_ckpt = 300;
        EXPECT_EQ(co.windowHorizon(), 300u);
    }
    {
        RunOptions wd = opt;
        wd.watchdogCycles = 50;
        Coordinator co(sys, wd);
        co.now = 10;
        EXPECT_EQ(co.windowHorizon(), 10u + 50 + 1);
    }
    {
        RunOptions wall = opt;
        wall.wallClockLimitSec = 60;
        Coordinator co(sys, wall);
        co.now = 10;
        EXPECT_EQ(co.windowHorizon(), 10u + 65'536);
    }
    {
        RunOptions cap = opt;
        cap.maxCycles = 5000;
        Coordinator co(sys, cap);
        co.now = 10;
        EXPECT_EQ(co.windowHorizon(), 5000u);
    }
    // OI-aware dispatch scores live resource tables: 1-cycle windows.
    sys.setDispatcher(traffic::dispatcherByName("oi"));
    Coordinator co(sys, opt);
    co.now = 10;
    EXPECT_EQ(co.windowHorizon(), 11u);
}

TEST(Coordinator, RoundRunsLiveEnginesToTheWindowEnd)
{
    // Cluster 0's core runs a long workload, cluster 1's is idle, and a
    // traffic arrival falls due at cycle 500.
    System sys(MachineConfig::Builder(SharingPolicy::Elastic)
                   .topology(2, 1)
                   .build());
    sys.setWorkload(0, "a", comp(1 << 20));
    sys.setWorkload(1, "idle", {});
    traffic::Arrival a;
    a.arriveAt = 500;
    a.workload = "late";
    a.loops = comp();
    sys.enqueueArrival(a);
    Coordinator co(sys, {});

    ASSERT_TRUE(co.preTick());
    co.horizon = 2'000;
    // Neither idle-core polls nor the due cycle bound a live engine: it
    // runs to the window end. An engine with no live core runs only
    // through the cursor.
    co.rescan = true;
    co.runRound();
    EXPECT_EQ(co.limit[0], 2'000u);
    EXPECT_EQ(co.engines[0]->at(), 2'000u);
    EXPECT_FALSE(co.engines[0]->stopped());
    EXPECT_EQ(co.limit[1], 1u);
    EXPECT_EQ(co.engines[1]->at(), 1u);

    co.now = 1;
    co.runRound();
    EXPECT_EQ(co.limit[0], 0u);         // Already at the window end.
    EXPECT_EQ(co.limit[1], 2u);
    EXPECT_EQ(co.engines[1]->at(), 2u);
}

} // namespace
} // namespace occamy
