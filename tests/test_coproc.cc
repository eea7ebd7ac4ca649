/**
 * @file
 * Tests driving the CoProcessor directly with hand-built dynamic
 * instructions: the rename/issue/commit pipeline, EM-SIMD execution
 * semantics (<VL> writes with drain and availability conditions,
 * <OI>-triggered lane plans), per-policy behaviour and the instruction
 * ordering rules of Table 2 that the hardware owns.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <vector>

#include "ckpt/ckpt.hh"
#include "coproc/coproc.hh"

namespace occamy
{
namespace
{

class CoprocTest : public ::testing::Test
{
  protected:
    void
    build(SharingPolicy policy, unsigned cores = 2)
    {
        cfg = MachineConfig::forPolicy(policy, cores);
        cfg.prefetchDegree = 0;
        boot();
    }

    /** (Re)create the machine from the current cfg, at cycle 0. */
    void
    boot()
    {
        cp.reset();
        mem = std::make_unique<MemSystem>(cfg);
        cp = std::make_unique<CoProcessor>(cfg, *mem);
        now = 0;
    }

    /** (cycle, core, seq) of one Issue event. */
    using IssueAt = std::tuple<Cycle, CoreId, SeqNum>;

    /** The Issue events @p sink recorded, in order. */
    static std::vector<IssueAt>
    issues(const obs::RingSink &sink)
    {
        std::vector<IssueAt> out;
        for (const obs::Event &ev : sink.snapshot().events)
            if (ev.kind == obs::EventKind::Issue)
                out.emplace_back(ev.cycle, ev.core, ev.b);
        return out;
    }

    /** Run the co-processor for @p n cycles. */
    void
    run(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            cp->tick(now++);
    }

    DynInst
    compute(CoreId core, std::int16_t dst, std::int16_t s0 = -1,
            std::int16_t s1 = -1)
    {
        DynInst d;
        d.op = Opcode::VFAdd;
        d.core = core;
        d.dstArch = dst;
        if (s0 >= 0)
            d.srcArch[d.nsrc++] = s0;
        if (s1 >= 0)
            d.srcArch[d.nsrc++] = s1;
        d.vlBus = static_cast<std::uint16_t>(cp->currentVl(core));
        d.activeLanes = static_cast<std::uint16_t>(d.vlBus * kLanesPerBu);
        d.enqueueCycle = now;
        return d;
    }

    DynInst
    load(CoreId core, std::int16_t dst, Addr addr)
    {
        DynInst d;
        d.op = Opcode::VLoad;
        d.core = core;
        d.dstArch = dst;
        d.addr = addr;
        d.bytes = 64;
        d.vlBus = static_cast<std::uint16_t>(cp->currentVl(core));
        d.activeLanes = 16;
        d.enqueueCycle = now;
        return d;
    }

    DynInst
    store(CoreId core, std::int16_t src, Addr addr)
    {
        DynInst d;
        d.op = Opcode::VStore;
        d.core = core;
        d.srcArch[d.nsrc++] = src;
        d.addr = addr;
        d.bytes = 64;
        d.vlBus = static_cast<std::uint16_t>(cp->currentVl(core));
        d.activeLanes = 16;
        d.enqueueCycle = now;
        return d;
    }

    DynInst
    msrVl(CoreId core, unsigned vl, bool from_decision = false)
    {
        DynInst d;
        d.op = Opcode::MsrVL;
        d.core = core;
        d.imm = vl;
        d.vlFromDecision = from_decision;
        d.enqueueCycle = now;
        return d;
    }

    DynInst
    msrOi(CoreId core, double issue, double mem_oi)
    {
        DynInst d;
        d.op = Opcode::MsrOI;
        d.core = core;
        d.oi = PhaseOI{issue, mem_oi, MemLevel::Dram};
        d.enqueueCycle = now;
        return d;
    }

    /** Wait for an outstanding <VL> request to resolve. */
    VlRequestStatus
    awaitVl(CoreId core, unsigned max_cycles = 1000)
    {
        for (unsigned i = 0; i < max_cycles; ++i) {
            const VlRequestStatus st = cp->vlRequestStatus(core);
            if (st.resolved) {
                cp->ackVlRequest(core);
                return st;
            }
            cp->tick(now++);
        }
        return {};
    }

    MachineConfig cfg;
    std::unique_ptr<MemSystem> mem;
    std::unique_ptr<CoProcessor> cp;
    Cycle now = 0;
};

TEST_F(CoprocTest, ElasticStartsWithAllLanesFree)
{
    build(SharingPolicy::Elastic);
    EXPECT_EQ(cp->freeBus(), 8u);
    EXPECT_EQ(cp->currentVl(0), 0u);
    EXPECT_EQ(cp->currentVl(1), 0u);
}

TEST_F(CoprocTest, PrivateBootsWithEqualSplit)
{
    build(SharingPolicy::Private);
    EXPECT_EQ(cp->currentVl(0), 4u);
    EXPECT_EQ(cp->currentVl(1), 4u);
    EXPECT_EQ(cp->freeBus(), 0u);
}

TEST_F(CoprocTest, VlsBootsWithStaticPlan)
{
    cfg = MachineConfig::forPolicy(SharingPolicy::StaticSpatial);
    cfg.staticPlan = {3, 5};
    mem = std::make_unique<MemSystem>(cfg);
    cp = std::make_unique<CoProcessor>(cfg, *mem);
    EXPECT_EQ(cp->currentVl(0), 3u);
    EXPECT_EQ(cp->currentVl(1), 5u);
}

TEST_F(CoprocTest, MsrVlSucceedsWhenLanesFree)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 3));
    const VlRequestStatus st = awaitVl(0);
    ASSERT_TRUE(st.resolved);
    EXPECT_TRUE(st.ok);
    EXPECT_EQ(cp->currentVl(0), 3u);
    EXPECT_EQ(cp->freeBus(), 5u);
    EXPECT_EQ(cp->vlSwitches(), 1u);
}

TEST_F(CoprocTest, MsrVlFailsWhenLanesUnavailable)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 6));
    ASSERT_TRUE(awaitVl(0).ok);
    cp->enqueueEmSimd(msrVl(1, 4));      // Only 2 free.
    const VlRequestStatus st = awaitVl(1);
    ASSERT_TRUE(st.resolved);
    EXPECT_FALSE(st.ok);                 // <status> = 0.
    EXPECT_EQ(cp->currentVl(1), 0u);
}

TEST_F(CoprocTest, MsrVlWaitsForDrain)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 2));
    ASSERT_TRUE(awaitVl(0).ok);

    // Put a long-latency load in flight, then request a new VL.
    cp->enqueue(load(0, 1, 0x10000));
    run(1);
    cp->enqueueEmSimd(msrVl(0, 4));
    // The request must not resolve while the load is outstanding.
    run(cfg.retireDelay + 4);
    EXPECT_FALSE(cp->vlRequestStatus(0).resolved);
    EXPECT_FALSE(cp->coreDrained(0));

    const VlRequestStatus st = awaitVl(0, 5000);
    ASSERT_TRUE(st.resolved);
    EXPECT_TRUE(st.ok);
    EXPECT_TRUE(cp->coreDrained(0));
    EXPECT_EQ(cp->currentVl(0), 4u);
}

TEST_F(CoprocTest, ShrinkAlwaysSucceedsAfterDrain)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 8));
    ASSERT_TRUE(awaitVl(0).ok);
    cp->enqueueEmSimd(msrVl(0, 2));
    ASSERT_TRUE(awaitVl(0).ok);
    EXPECT_EQ(cp->freeBus(), 6u);
}

TEST_F(CoprocTest, SameVlIsTrivialSuccessWithoutDrain)
{
    build(SharingPolicy::Private);
    cp->enqueue(load(0, 1, 0x20000));    // In flight.
    run(1);
    cp->enqueueEmSimd(msrVl(0, 4));      // == current.
    const VlRequestStatus st = awaitVl(0, 20);
    ASSERT_TRUE(st.resolved);
    EXPECT_TRUE(st.ok);
}

TEST_F(CoprocTest, PrivateRejectsRepartitioning)
{
    // Shrink requests are rejected outright; over-asks clamp to the
    // fixed entitlement (graceful degradation after a lane fault) —
    // either way the partition itself never moves.
    build(SharingPolicy::Private);
    cp->enqueueEmSimd(msrVl(0, 2));
    const VlRequestStatus st = awaitVl(0);
    ASSERT_TRUE(st.resolved);
    EXPECT_FALSE(st.ok);
    EXPECT_EQ(cp->currentVl(0), 4u);

    cp->enqueueEmSimd(msrVl(0, 6));
    const VlRequestStatus over = awaitVl(0);
    ASSERT_TRUE(over.resolved);
    EXPECT_TRUE(over.ok);
    EXPECT_EQ(cp->currentVl(0), 4u);
}

TEST_F(CoprocTest, TemporalAlwaysFullWidth)
{
    build(SharingPolicy::Temporal);
    cp->enqueueEmSimd(msrVl(0, 8));
    ASSERT_TRUE(awaitVl(0).ok);
    EXPECT_EQ(cp->currentVl(0), 8u);
    EXPECT_EQ(cp->allocatedLanes(0), 32u);
    EXPECT_EQ(cp->allocatedLanes(1), 32u);
}

TEST_F(CoprocTest, MsrOiTriggersLanePlan)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrOi(0, 0.09, 0.09));
    run(cfg.laneMgrLatency + 3);
    EXPECT_EQ(cp->plansMade(), 1u);
    // A lone memory workload gets its roofline knee.
    EXPECT_EQ(cp->decision(0), 2u);
    EXPECT_EQ(cp->decision(1), 0u);
}

TEST_F(CoprocTest, PlanReactsToSecondWorkload)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrOi(0, 0.09, 0.09));
    run(cfg.laneMgrLatency + 3);
    DynInst oi1 = msrOi(1, 1.0, 1.0);
    oi1.oi.level = MemLevel::VecCache;
    cp->enqueueEmSimd(oi1);
    run(cfg.laneMgrLatency + 3);
    EXPECT_EQ(cp->decision(0), 2u);
    EXPECT_EQ(cp->decision(1), 6u);
}

TEST_F(CoprocTest, ComputePipelineExecutesInDependencyOrder)
{
    build(SharingPolicy::Private);
    // z1 = z0 + z0 ; z2 = z1 + z1 (dependent chain).
    cp->enqueue(compute(0, 0));
    cp->enqueue(compute(0, 1, 0, 0));
    cp->enqueue(compute(0, 2, 1, 1));
    run(60);
    EXPECT_TRUE(cp->coreDrained(0));
    EXPECT_EQ(cp->computeIssued(0), 3u);
}

TEST_F(CoprocTest, IssueRespectsComputeWidth)
{
    build(SharingPolicy::Private);
    // 12 independent compute insts: at width 2 they need >= 6 issue
    // cycles after the transmit/rename ramp.
    for (int i = 0; i < 12; ++i)
        cp->enqueue(compute(0, static_cast<std::int16_t>(i % 8)));
    unsigned cycles_to_drain = 0;
    while (!cp->coreDrained(0) && cycles_to_drain < 200) {
        cp->tick(now++);
        ++cycles_to_drain;
    }
    EXPECT_GE(cycles_to_drain,
              12u / cfg.computeIssueWidth + cfg.retireDelay);
    EXPECT_EQ(cp->computeIssued(0), 12u);
}

TEST_F(CoprocTest, ConsumerIssuesAsSoonAsItsProducerResultIsReady)
{
    // z1 = z0 + z0 after z0's producer. Both rename at cycle 4 (the
    // retire delay); the producer issues at 5 and wakes the consumer
    // for cycle 5 + fpLatency — with latency 0 later in the very same
    // issue stage.
    for (unsigned lat : {0u, 4u}) {
        build(SharingPolicy::Private);
        cfg.fpLatency = lat;
        boot();
        obs::RingSink sink;
        cp->setEventSink(&sink);
        cp->enqueue(compute(0, 0));
        cp->enqueue(compute(0, 1, 0, 0));
        run(40);
        EXPECT_EQ(issues(sink),
                  (std::vector<IssueAt>{{5, 0, 0}, {5 + lat, 0, 1}}))
            << "fpLatency " << lat;
    }
}

TEST_F(CoprocTest, FullLoadQueueDoesNotBlockYoungerComputesAndStores)
{
    build(SharingPolicy::Private);
    cfg.loadQueueEntries = 1;
    boot();
    obs::RingSink sink;
    cp->setEventSink(&sink);
    cp->enqueue(load(0, 0, 0x100000));      // seq 0: fills the LQ
    cp->enqueue(load(0, 1, 0x200000));      // seq 1: blocked on the LQ
    cp->enqueue(compute(0, 2));             // seq 2
    cp->enqueue(store(0, 3, 0x300000));     // seq 3
    cp->enqueue(store(0, 4, 0x400000));     // seq 4
    run(400);
    const std::vector<IssueAt> got = issues(sink);
    ASSERT_EQ(got.size(), 5u);
    // Cycle 5: the first load takes the only LQ entry and one ld/st
    // slot; the compute and the oldest store issue past the blocked
    // load, oldest first; the second store waits for next cycle's
    // ld/st budget (2 per cycle).
    EXPECT_EQ(got[0], IssueAt(5, 0, 0));
    EXPECT_EQ(got[1], IssueAt(5, 0, 2));
    EXPECT_EQ(got[2], IssueAt(5, 0, 3));
    EXPECT_EQ(got[3], IssueAt(6, 0, 4));
    // The blocked load leaves only once the first one's LQ entry frees.
    EXPECT_EQ(std::get<2>(got[4]), 1u);
    EXPECT_GT(std::get<0>(got[4]), 6u);
    EXPECT_TRUE(cp->coreDrained(0));
}

TEST_F(CoprocTest, TemporalSharingIssuesRoundRobinFromSharedBudgets)
{
    build(SharingPolicy::Temporal);
    obs::RingSink sink;
    cp->setEventSink(&sink);
    cp->enqueue(compute(0, 0));             // core 0, seq 0
    cp->enqueue(compute(0, 1));             // core 0, seq 1
    cp->enqueue(compute(0, 2));             // core 0, seq 2
    cp->enqueue(load(1, 0, 0x100000));      // core 1, seq 0
    cp->enqueue(compute(1, 1));             // core 1, seq 1
    cp->enqueue(store(1, 5, 0x200000));     // core 1, seq 2
    run(20);
    // Both cores rename at cycle 4. The round-robin pointer advances
    // once per cycle, so cycle 5 starts at core 1. Each round every
    // core issues its oldest entry that still fits the shared 2
    // compute + 2 ld/st budget:
    //  cycle 5, round 1: core 1 load, core 0 compute (1 + 1 left);
    //           round 2: core 1 compute (compute spent), core 0 none;
    //           round 3: core 1 store (ld/st spent).
    //  cycle 6, round 1: core 0 compute; round 2: core 0 compute.
    EXPECT_EQ(issues(sink), (std::vector<IssueAt>{{5, 1, 0},
                                                  {5, 0, 0},
                                                  {5, 1, 1},
                                                  {5, 1, 2},
                                                  {6, 0, 1},
                                                  {6, 0, 2}}));
}

TEST_F(CoprocTest, RestoreRebuildsIssueStateAndRejectsAForeignIq)
{
    build(SharingPolicy::Private);
    cp->enqueue(compute(0, 0));             // seq 0
    cp->enqueue(compute(0, 1, 0, 0));       // seq 1: ready 4 cycles later
    cp->enqueue(compute(0, 2, 1, 1));       // seq 2: waits for seq 1
    run(6);                                 // seq 0 issued at cycle 5
    std::ostringstream os;
    ckpt::Writer w(os);
    cp->save(w);
    const std::string bytes = os.str();

    auto restore = [&](const std::string &b) {
        auto fresh = std::make_unique<CoProcessor>(cfg, *mem);
        std::istringstream is(b);
        ckpt::Reader r(is);
        fresh->load(r);
        return fresh;
    };

    // The restored twin issues the waiting entries on the same cycles.
    obs::RingSink want, got;
    std::unique_ptr<CoProcessor> twin = restore(bytes);
    cp->setEventSink(&want);
    twin->setEventSink(&got);
    for (Cycle t = now; t < now + 40; ++t) {
        cp->tick(t);
        twin->tick(t);
    }
    EXPECT_EQ(issues(got), issues(want));
    EXPECT_EQ(issues(want),
              (std::vector<IssueAt>{{9, 0, 1}, {13, 0, 2}}));

    // Core 0's saved IQ: robBase 0, then 2 entries, seqs 1 and 2. Name
    // the issued seq 0 instead of seq 2: the file is self-inconsistent.
    auto u64s = [](std::initializer_list<std::uint64_t> vs) {
        std::string out;
        for (std::uint64_t v : vs)
            for (int i = 0; i < 8; ++i)
                out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
        return out;
    };
    const std::string iq = u64s({0, 2, 1, 2});
    const std::size_t at = bytes.find(iq);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(bytes.find(iq, at + 1), std::string::npos);
    std::string bad = bytes;
    bad.replace(at, iq.size(), u64s({0, 2, 1, 0}));
    try {
        restore(bad);
        FAIL() << "restore accepted an IQ that disagrees with the ROB";
    } catch (const ckpt::Error &e) {
        EXPECT_NE(std::string(e.what()).find("IQ does not match"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(CoprocTest, BusyLanesTrackActiveLanes)
{
    build(SharingPolicy::Private);
    cp->enqueue(compute(0, 0));
    bool saw_busy = false;
    for (unsigned i = 0; i < 40 && !saw_busy; ++i) {
        cp->tick(now++);
        if (cp->busyLanes(0) == 16u)
            saw_busy = true;
    }
    EXPECT_TRUE(saw_busy);
}

TEST_F(CoprocTest, PerPhaseComputeCounters)
{
    build(SharingPolicy::Private);
    DynInst a = compute(0, 0);
    a.phaseId = 0;
    DynInst b = compute(0, 1);
    b.phaseId = 3;
    cp->enqueue(a);
    cp->enqueue(b);
    run(60);
    EXPECT_EQ(cp->computeIssuedInPhase(0, 0), 1u);
    EXPECT_EQ(cp->computeIssuedInPhase(0, 3), 1u);
    EXPECT_EQ(cp->computeIssuedInPhase(0, 7), 0u);
}

TEST_F(CoprocTest, RegPressureStallsRenameInSharedMode)
{
    build(SharingPolicy::Temporal);
    cfg.robEntries = 256;
    // Flood both cores with dest-writing computes depending on a slow
    // load so nothing commits.
    for (CoreId c = 0; c < 2; ++c) {
        cp->enqueueEmSimd(msrVl(c, 8));
        awaitVl(c);
    }
    for (unsigned i = 0; i < 60; ++i) {
        if (cp->canEnqueue(0))
            cp->enqueue(load(0, 0, 0x100000 + (i << 18)));
        if (cp->canEnqueue(1))
            cp->enqueue(load(1, 0, 0x900000 + (i << 18)));
        cp->tick(now++);
    }
    run(40);
    EXPECT_GT(cp->renameRegStallCycles(0) + cp->renameRegStallCycles(1),
              0u);
}

TEST_F(CoprocTest, VlSwitchResetsRegisterState)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 2));
    ASSERT_TRUE(awaitVl(0).ok);
    cp->enqueue(compute(0, 5));
    run(60);
    ASSERT_TRUE(cp->coreDrained(0));
    // Retarget: contents dropped (Section 4.2.2), mappings cleared; a
    // consumer of z5 renamed afterwards sees no stale producer and is
    // immediately ready.
    cp->enqueueEmSimd(msrVl(0, 4));
    ASSERT_TRUE(awaitVl(0).ok);
    cp->enqueue(compute(0, 6, 5, 5));
    run(60);
    EXPECT_TRUE(cp->coreDrained(0));
    EXPECT_EQ(cp->computeIssued(0), 2u);
}

} // namespace
} // namespace occamy
