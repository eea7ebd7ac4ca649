/**
 * @file
 * Fast-forward equivalence suite. The quiescence-aware engine behind
 * RunOptions::fastForward must be a pure wall-clock optimization:
 * running any workload with it on or off has to produce byte-identical
 * canonical trace JSON, identical timelines/snapshots/stats dumps and
 * byte-identical exported event traces. Every golden-matrix cell is
 * checked both ways, plus timed-out and batch-queue (idle-heavy) runs,
 * plus unit tests of the component quiescence probes (nextEventAt).
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coproc/coproc.hh"
#include "fault/fault.hh"
#include "golden_matrix.hh"
#include "mem/memsystem.hh"
#include "obs/export.hh"
#include "obs/sink.hh"
#include "runner/runner.hh"
#include "sim/trace.hh"
#include "traffic/admission.hh"
#include "traffic/scheduler.hh"
#include "traffic/traffic.hh"
#include "workloads/phases.hh"
#include "workloads/suite.hh"

using namespace occamy;

namespace
{

/** Run one golden-matrix cell with tracing + snapshots at a given
 *  fast-forward setting. */
runner::JobResult
runCell(const runner::JobSpec &base, bool fast_forward)
{
    runner::JobSpec spec = base;
    spec.fastForward = fast_forward;
    spec.traceEvents = obs::kEvAll;
    spec.snapshotEvery = 5'000;
    return runner::Runner::runOne(spec);
}

/** Assert every observable artifact of two runs is identical. */
void
expectIdentical(const runner::JobResult &on, const runner::JobResult &off)
{
    // Canonical exported trace: byte-identical.
    EXPECT_EQ(trace::toJson(on.result), trace::toJson(off.result));

    // RunResult fields toJson does not cover.
    EXPECT_EQ(on.result.statsText, off.result.statsText);
    ASSERT_EQ(on.result.cores.size(), off.result.cores.size());
    for (std::size_t c = 0; c < on.result.cores.size(); ++c) {
        SCOPED_TRACE("core " + std::to_string(c));
        EXPECT_EQ(on.result.cores[c].busyLanesTimeline,
                  off.result.cores[c].busyLanesTimeline);
        EXPECT_EQ(on.result.cores[c].allocLanesTimeline,
                  off.result.cores[c].allocLanesTimeline);
    }

    // Event stream + metric snapshots: byte-identical Chrome export.
    // (SchedFastForward events live in the engine category, which is
    // deliberately outside kEvAll, so the streams can match exactly.)
    std::ostringstream a, b;
    obs::writeChromeTrace(a, on.trace, on.result.snapshots);
    obs::writeChromeTrace(b, off.trace, off.result.snapshots);
    EXPECT_EQ(a.str(), b.str());
}

TEST(FastForwardEquiv, GoldenMatrixIsObservationallyIdentical)
{
    for (const auto &spec : golden::goldenJobs()) {
        SCOPED_TRACE(spec.label);
        const runner::JobResult on = runCell(spec, true);
        const runner::JobResult off = runCell(spec, false);
        ASSERT_TRUE(on.ok()) << on.error;
        ASSERT_TRUE(off.ok()) << off.error;
        expectIdentical(on, off);

        // The engine's accounting is consistent, and the classic loop
        // reports itself as never skipping.
        EXPECT_EQ(on.ff.cyclesTicked + on.ff.cyclesSkipped,
                  on.ff.cyclesSimulated);
        EXPECT_EQ(off.ff.cyclesSkipped, 0u);
        EXPECT_EQ(off.ff.cyclesTicked, off.ff.cyclesSimulated);
        EXPECT_EQ(on.ff.cyclesSimulated, off.ff.cyclesSimulated);
    }
}

TEST(FastForwardEquiv, TimedOutRunsMatch)
{
    // A cap far below completion: the engine must land on exactly the
    // same cap cycle and partial state as the ticked loop.
    for (const auto &base : golden::goldenJobs()) {
        SCOPED_TRACE(base.label);
        runner::JobSpec spec = base;
        spec.maxCycles = 5'000;
        const runner::JobResult on = runCell(spec, true);
        const runner::JobResult off = runCell(spec, false);
        EXPECT_TRUE(on.result.timedOut);
        EXPECT_TRUE(off.result.timedOut);
        expectIdentical(on, off);
    }
}

TEST(FastForwardEquiv, BatchQueueWithContextSwitchCostMatchesAndSkips)
{
    // Batch dispatch after a long context switch is the idle-heavy case
    // the engine targets: both cores sit quiescent until the dispatch
    // cycle, which arrives as a Dispatch wake event.
    auto result = [](bool ff, FastForwardStats *stats) {
        const MachineConfig cfg =
            MachineConfig::Builder(SharingPolicy::Elastic)
                .cores(2)
                .contextSwitch(50'000)
                .build();
        System sys(cfg);
        sys.setWorkload(0, "idle0", {});
        sys.setWorkload(1, "idle1", {});
        for (int i = 0; i < 3; ++i)
            sys.enqueueWorkload(
                "job" + std::to_string(i),
                {workloads::makeNamedPhase("wsm51", 16384)});
        RunOptions opt;
        opt.fastForward = ff;
        opt.ffStats = stats;
        return sys.run(opt);
    };

    FastForwardStats on_stats, off_stats;
    const RunResult on = result(true, &on_stats);
    const RunResult off = result(false, &off_stats);

    EXPECT_EQ(trace::toJson(on), trace::toJson(off));
    EXPECT_EQ(on.statsText, off.statsText);
    ASSERT_EQ(on.cores.size(), off.cores.size());
    for (std::size_t c = 0; c < on.cores.size(); ++c) {
        EXPECT_EQ(on.cores[c].busyLanesTimeline,
                  off.cores[c].busyLanesTimeline);
        EXPECT_EQ(on.cores[c].allocLanesTimeline,
                  off.cores[c].allocLanesTimeline);
    }

    // This workload must actually exercise the engine.
    EXPECT_GT(on_stats.spans, 0u);
    EXPECT_GT(on_stats.cyclesSkipped, 0u);
    EXPECT_LT(on_stats.cyclesTicked, off_stats.cyclesTicked);
}

// -------------------------------------------- sim-threads equivalence

/** Clustered machine for the 1-vs-N worker matrix: 4 clusters of 2
 *  cores, alternating memory-bound and compute-bound workloads, plus
 *  batch-queued work so cross-cluster dispatch runs too. */
runner::JobSpec
clusteredSpec(SharingPolicy policy, bool traffic)
{
    runner::JobSpec spec;
    spec.cfg =
        MachineConfig::Builder(policy).topology(4, 2).build();
    for (unsigned c = 0; c < 8; ++c) {
        const std::string n = std::to_string(c);
        if (traffic) {
            spec.workloads.emplace_back("idle" + n,
                                        std::vector<kir::Loop>{});
        } else if (c % 2) {
            spec.workloads.emplace_back(
                "comp" + n,
                std::vector<kir::Loop>{
                    workloads::makeNamedPhase("wsm51", 4096)});
        } else {
            spec.workloads.emplace_back(
                "mem" + n,
                std::vector<kir::Loop>{
                    workloads::makeNamedPhase("rho_eos1", 2048)});
        }
    }
    if (traffic) {
        spec.traffic.process = "poisson";
        spec.traffic.scheduler = "sjf";
        spec.traffic.tenants = 2;
        spec.traffic.seed = 11;
        spec.traffic.jobsPerTenant = 2;
        spec.traffic.meanGapCycles = 20'000.0;
        spec.traffic.sloCycles = 1'000'000;
    } else {
        for (int i = 0; i < 2; ++i)
            spec.batch.emplace_back(
                "q" + std::to_string(i),
                std::vector<kir::Loop>{
                    workloads::makeNamedPhase("wsm53", 4096)});
    }
    spec.maxCycles = 20'000'000;
    return spec;
}

runner::JobResult
runThreaded(runner::JobSpec spec, unsigned threads)
{
    spec.simThreads = threads;
    spec.traceEvents = obs::kEvAll;
    spec.snapshotEvery = 5'000;
    runner::JobResult r = runner::Runner::runOne(spec);
    EXPECT_TRUE(r.ok()) << r.error;
    return r;
}

/** One cell of the clustered 1-vs-N matrix. */
struct MatrixCell
{
    SharingPolicy policy;
    bool traffic;
    std::uint64_t faultSeed;
    bool ff;

    /** Cell label, e.g. "Occamy_batch_faults_ff" (the gtest suffix). */
    std::string name() const
    {
        return std::string(policyName(policy)) +
               (traffic ? "_traffic" : "_batch") +
               (faultSeed ? "_faults" : "") + (ff ? "_ff" : "_ticked");
    }

    friend void PrintTo(const MatrixCell &cell, std::ostream *os)
    {
        *os << cell.name();
    }
};

std::vector<MatrixCell>
matrixCells()
{
    std::vector<MatrixCell> cells;
    for (const SharingPolicy policy :
         {SharingPolicy::Elastic, SharingPolicy::Private})
        for (const bool traffic : {false, true})
            for (const std::uint64_t fault_seed :
                 {std::uint64_t{0}, std::uint64_t{7}})
                for (const bool ff : {true, false})
                    cells.push_back({policy, traffic, fault_seed, ff});
    return cells;
}

/** One test per cell, so ctest can run the cells side by side. */
class ClusteredMatrix : public ::testing::TestWithParam<MatrixCell>
{
};

/** The tentpole contract (DESIGN.md §15): every observable artifact of
 *  a clustered run is byte-identical whether the per-cluster engines
 *  tick serially or on a worker pool, across policy x fault plan x
 *  traffic x fast-forward. */
TEST_P(ClusteredMatrix, IsByteIdenticalOneVsN)
{
    const MatrixCell &cell = GetParam();
    runner::JobSpec spec = clusteredSpec(cell.policy, cell.traffic);
    spec.label = "4x2/" + cell.name();
    spec.fastForward = cell.ff;
    spec.faultSeed = cell.faultSeed;
    spec.watchdogCycles = 50'000;
    const runner::JobResult serial = runThreaded(spec, 1);
    // 4 workers = one per cluster; 3 leaves a cluster to work-stealing,
    // covering uneven division.
    expectIdentical(serial, runThreaded(spec, 4));
    expectIdentical(serial, runThreaded(spec, 3));
}

INSTANTIATE_TEST_SUITE_P(
    SimThreadsEquiv, ClusteredMatrix, ::testing::ValuesIn(matrixCells()),
    [](const ::testing::TestParamInfo<MatrixCell> &info) {
        std::string name = info.param.name();
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/** Fast-forward accounting is written into checkpoints, sweep JSON and
 *  serve replies, so it must not depend on how the cycle loop is
 *  organized: these are the lock-step loop's figures for two clustered
 *  runs, at 4 sim-threads (and equal at any count). */
TEST(FastForwardEquiv, ClusteredFfStatsArePinned)
{
    struct Pin
    {
        bool traffic;
        Cycle ticked, skipped;
        std::uint64_t spans;
        Cycle longest;
    };
    for (const Pin &pin : {Pin{false, 23877, 530, 105, 7},
                           Pin{true, 274638, 2757, 67, 2179}}) {
        runner::JobSpec spec =
            clusteredSpec(SharingPolicy::Elastic, pin.traffic);
        spec.watchdogCycles = 50'000;
        SCOPED_TRACE(pin.traffic ? "traffic" : "batch");
        const FastForwardStats ff = runThreaded(spec, 4).ff;
        EXPECT_EQ(ff.cyclesTicked, pin.ticked);
        EXPECT_EQ(ff.cyclesSkipped, pin.skipped);
        EXPECT_EQ(ff.spans, pin.spans);
        EXPECT_EQ(ff.longestSpan, pin.longest);
    }
}

/** Thread counts beyond the cluster count are capped, not an error,
 *  and a flat machine stays on the serial loop for any value. */
TEST(SimThreadsEquiv, OversizedAndFlatRequestsDegradeGracefully)
{
    runner::JobSpec clustered =
        clusteredSpec(SharingPolicy::Elastic, false);
    clustered.label = "oversized";
    expectIdentical(runThreaded(clustered, 1),
                    runThreaded(clustered, 64));

    runner::JobSpec flat;
    flat.label = "flat";
    flat.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    const auto w6 = workloads::specWorkload(6);
    const auto w16 = workloads::specWorkload(16);
    flat.workloads.emplace_back(w6.name, w6.loops);
    flat.workloads.emplace_back(w16.name, w16.loops);
    expectIdentical(runThreaded(flat, 1), runThreaded(flat, 8));
}

// ------------------------------------------ windowed tick equivalence

/** Run @p spec on a System the way Runner::runOne does — with one
 *  advance() call, or with one call per cycle (advance(now() + 1)
 *  forces every tick window down to a single cycle) — optionally with
 *  @p dispatcher installed on a plain batch queue. */
runner::JobResult
runWindowed(const runner::JobSpec &spec, unsigned threads, bool stepped,
            const char *dispatcher)
{
    runner::JobResult out;
    obs::RingSink sink(1u << 16, obs::kEvAll);
    System sys(spec.cfg);
    for (std::size_t c = 0; c < spec.workloads.size(); ++c)
        sys.setWorkload(static_cast<CoreId>(c), spec.workloads[c].first,
                        spec.workloads[c].second);
    for (const auto &[name, loops] : spec.batch)
        sys.enqueueWorkload(name, loops);
    if (spec.traffic.enabled()) {
        for (const traffic::Arrival &a : traffic::generate(spec.traffic))
            sys.enqueueArrival(a);
        sys.setDispatcher(
            traffic::dispatcherByName(spec.traffic.scheduler));
        if (spec.traffic.admissionEnabled())
            sys.setAdmission(
                traffic::admissionByName(spec.traffic.admission),
                spec.traffic.admissionCap,
                static_cast<Cycle>(spec.traffic.meanGapCycles));
    }
    if (dispatcher)
        sys.setDispatcher(traffic::dispatcherByName(dispatcher));
    RunOptions opt;
    opt.maxCycles = spec.maxCycles;
    opt.snapshotEvery = spec.snapshotEvery;
    opt.watchdogCycles = spec.watchdogCycles;
    opt.simThreads = threads;
    opt.sink = &sink;
    opt.ffStats = &out.ff;
    fault::FaultPlan plan;
    if (!spec.faultPlan.empty())
        plan = fault::FaultPlan::parse(spec.faultPlan);
    else if (spec.faultSeed)
        plan = fault::FaultPlan::random(spec.faultSeed, spec.cfg);
    if (!plan.empty())
        opt.faultPlan = &plan;
    sys.boot(opt);
    if (stepped) {
        while (!sys.advance(sys.now() + 1)) {
        }
    } else {
        EXPECT_TRUE(sys.advance());
    }
    out.result = sys.finalize();
    out.trace = sink.take();
    return out;
}

/** Window shapes are bookkeeping: a run whose every tick window is one
 *  cycle long (advance(now() + 1) per call) and a run in one advance()
 *  call produce the same results, traffic records, snapshots and
 *  non-engine event stream, serially and on a worker pool. Covers
 *  traffic with admission, clusters finishing at different cycles, a
 *  flat machine, a zero and a default context switch, a watchdog
 *  shorter than the context switch, faults, snapshots, and OI-aware
 *  dispatch (one-cycle windows by construction). */
TEST(SimThreadsEquiv, WindowedEqualsSingleStepped)
{
    struct Case
    {
        std::string label;
        runner::JobSpec spec;
        const char *dispatcher = nullptr;
    };
    std::vector<Case> cases;

    runner::JobSpec slo = clusteredSpec(SharingPolicy::Elastic, true);
    slo.traffic.admission = "slo-aware";
    slo.traffic.admissionCap = 2;
    slo.traffic.sloCycles = 150'000;
    slo.snapshotEvery = 5'000;
    cases.push_back({"4x2 traffic slo-aware", slo});

    // Private keeps its lanes allocated on finished cores, so an engine
    // that ran past the run's last cycle would show in the timelines.
    runner::JobSpec uneven;
    uneven.cfg = MachineConfig::Builder(SharingPolicy::Private)
                     .topology(4, 4)
                     .build();
    for (unsigned c = 0; c < 16; ++c)
        uneven.workloads.emplace_back(
            "w" + std::to_string(c),
            std::vector<kir::Loop>{workloads::makeNamedPhase(
                c % 2 ? "wsm51" : "rho_eos1", 512u * (c % 5 + 1))});
    uneven.batch.emplace_back(
        "q0",
        std::vector<kir::Loop>{workloads::makeNamedPhase("wsm53", 1024)});
    cases.push_back({"4x4 private batch, uneven finish", uneven});

    runner::JobSpec flat;
    flat.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    for (unsigned n : {6u, 16u}) {
        const auto w = workloads::specWorkload(n);
        flat.workloads.emplace_back(w.name, w.loops);
    }
    cases.push_back({"flat 6+16", flat});

    for (unsigned cs : {0u, 200u}) {
        runner::JobSpec batch = clusteredSpec(SharingPolicy::Elastic, false);
        batch.cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                        .topology(4, 2)
                        .contextSwitch(cs)
                        .build();
        cases.push_back({"4x2 batch cs " + std::to_string(cs), batch});
    }

    runner::JobSpec wd = clusteredSpec(SharingPolicy::Elastic, false);
    wd.watchdogCycles = 50;
    cases.push_back({"4x2 batch watchdog 50", wd});

    runner::JobSpec faults = clusteredSpec(SharingPolicy::Elastic, false);
    faults.faultSeed = 7;
    faults.snapshotEvery = 5'000;
    cases.push_back({"4x2 batch fault seed 7", faults});

    cases.push_back({"4x2 batch oi",
                     clusteredSpec(SharingPolicy::Elastic, false), "oi"});

    for (const Case &c : cases) {
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(c.label + ", " + std::to_string(threads) +
                         " sim-threads");
            const runner::JobResult stepped =
                runWindowed(c.spec, threads, true, c.dispatcher);
            const runner::JobResult windowed =
                runWindowed(c.spec, threads, false, c.dispatcher);
            EXPECT_FALSE(windowed.result.timedOut);
            expectIdentical(stepped, windowed);
            ASSERT_EQ(stepped.result.trafficJobs.size(),
                      windowed.result.trafficJobs.size());
            for (std::size_t q = 0; q < stepped.result.trafficJobs.size();
                 ++q) {
                const traffic::JobRecord &a = stepped.result.trafficJobs[q];
                const traffic::JobRecord &b =
                    windowed.result.trafficJobs[q];
                EXPECT_EQ(a.arrive, b.arrive) << q;
                EXPECT_EQ(a.admit, b.admit) << q;
                EXPECT_EQ(a.finish, b.finish) << q;
                EXPECT_EQ(a.shed, b.shed) << q;
                EXPECT_EQ(a.defers, b.defers) << q;
            }
        }
    }
}

/** A watchdog escalation at a window's last cycle rewrites the engine
 *  it belongs to: the cancelled <VL> request clears an injected
 *  reconfiguration delay and the scalar fallback stalls the core. With
 *  the partner core done, the machine-wide skip that follows must be
 *  taken on that live state, not on what the engine's own tick saw.
 *  The figures are the lock-step loop's. */
TEST(FastForwardEquiv, WatchdogEscalationThenSkipIsPinned)
{
    struct Pin
    {
        Cycle watchdog;
        Cycle ticked, skipped;
        std::uint64_t spans;
        Cycle longest;
    };
    for (const Pin &pin : {Pin{1'000, 119231, 1476465, 238, 1474799},
                           Pin{20'000, 119231, 1514465, 238, 1474799}}) {
        SCOPED_TRACE("watchdog " + std::to_string(pin.watchdog));
        runner::JobSpec spec;
        spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
        for (unsigned n : {6u, 16u}) {
            const auto w = workloads::specWorkload(n);
            spec.workloads.emplace_back(w.name, w.loops);
        }
        // Core 1 widens its VL once core 0 finishes (cycle 118990);
        // the delay outlives the watchdog.
        spec.faultPlan = "cfgdelay@118000:core=1,cycles=100000";
        spec.watchdogCycles = pin.watchdog;
        spec.maxCycles = 20'000'000;
        const runner::JobResult stepped = runWindowed(spec, 1, true, nullptr);
        const runner::JobResult windowed =
            runWindowed(spec, 1, false, nullptr);
        EXPECT_FALSE(windowed.result.timedOut);
        EXPECT_GT(windowed.result.watchdogTrips, 0u);
        expectIdentical(stepped, windowed);
        EXPECT_EQ(windowed.ff.cyclesTicked, pin.ticked);
        EXPECT_EQ(windowed.ff.cyclesSkipped, pin.skipped);
        EXPECT_EQ(windowed.ff.spans, pin.spans);
        EXPECT_EQ(windowed.ff.longestSpan, pin.longest);
    }
}

TEST(NextEventAt, MemSystemReportsPendingFillsThenDrains)
{
    MachineConfig cfg =
        MachineConfig::Builder(SharingPolicy::Private).cores(2).build();
    MemSystem mem(cfg);

    // Fresh memory system: nothing in flight at any cycle.
    EXPECT_EQ(mem.nextEventAt(0), kCycleNever);
    EXPECT_EQ(mem.nextEventAt(123'456), kCycleNever);

    // A cold-miss access puts a fill in flight: the probe must report
    // a strictly-future cycle, not kCycleNever.
    const MemAccessResult r = mem.access(1 << 20, 64, false, 0);
    ASSERT_GT(r.dataReady, 0u);
    const Cycle next = mem.nextEventAt(0);
    ASSERT_NE(next, kCycleNever);
    EXPECT_GT(next, 0u);

    // Far past every in-flight completion the probe drains again.
    EXPECT_EQ(mem.nextEventAt(1'000'000'000), kCycleNever);
}

TEST(NextEventAt, CoprocDrainedIsNeverAndWakesNeverLate)
{
    MachineConfig cfg =
        MachineConfig::Builder(SharingPolicy::Private).cores(2).build();
    cfg.prefetchDegree = 0;

    MemSystem mem_a(cfg), mem_b(cfg);
    CoProcessor ticked(cfg, mem_a);
    CoProcessor probed(cfg, mem_b);

    EXPECT_EQ(ticked.nextEventAt(0), kCycleNever);
    EXPECT_EQ(ticked.nextEventAt(9'999), kCycleNever);

    auto inst = [](CoProcessor &cp, Opcode op, std::int16_t dst,
                   std::int16_t src, Addr addr, Cycle at) {
        DynInst d;
        d.op = op;
        d.core = 0;
        d.dstArch = dst;
        if (src >= 0) {
            d.srcArch[0] = src;
            d.nsrc = 1;
        }
        d.vlBus = static_cast<std::uint16_t>(cp.currentVl(0));
        d.activeLanes =
            static_cast<std::uint16_t>(d.vlBus * kLanesPerBu);
        d.addr = addr;
        d.bytes = 64;
        d.enqueueCycle = at;
        return d;
    };
    constexpr Addr kHot = 0x100000, kCold = 0x800000, kOut = 0x900000;

    // Warm one line in both twins, so the chain below can hit it.
    Cycle start = 0;
    for (CoProcessor *cp : {&ticked, &probed})
        cp->enqueue(inst(*cp, Opcode::VLoad, 7, -1, kHot, start));
    while (!ticked.coreDrained(0) || !probed.coreDrained(0)) {
        ticked.tick(start);
        probed.tick(start);
        ++start;
        ASSERT_LT(start, 10'000u);
    }

    // An independent compute; a cold load that holds the ROB head for
    // a DRAM round trip; then a load -> compute -> store chain on the
    // warm line. The chain's compute parks on its unissued load (the
    // waiter path) and moves to the load's known return cycle (the
    // heap path); the store follows the compute the same way. With the
    // cold load at the ROB head, no retire or LSU release coincides
    // with the store's operand-ready cycle: only the heap top wakes
    // the probe for it.
    for (CoProcessor *cp : {&ticked, &probed}) {
        cp->enqueue(inst(*cp, Opcode::VFAdd, 1, -1, 0, start));
        cp->enqueue(inst(*cp, Opcode::VLoad, 4, -1, kCold, start));
        cp->enqueue(inst(*cp, Opcode::VLoad, 2, -1, kHot, start));
        cp->enqueue(inst(*cp, Opcode::VFAdd, 3, 2, 0, start));
        cp->enqueue(inst(*cp, Opcode::VStore, -1, 3, kOut, start));
    }
    obs::RingSink ticked_sink, probed_sink;
    ticked.setEventSink(&ticked_sink);
    probed.setEventSink(&probed_sink);

    // Reference: tick every cycle, note when the pipeline drains.
    Cycle drain = start;
    while (!ticked.coreDrained(0)) {
        ticked.tick(drain);
        if (ticked.coreDrained(0))
            break;
        ++drain;
        ASSERT_LT(drain, 10'000u);
    }

    // Probe-driven twin: tick only at suggested cycles. The probe may
    // wake early (a no-op tick) but never late, so the drain tick must
    // land on exactly the same cycle.
    probed.tick(start);
    Cycle last = start;
    for (;;) {
        const Cycle next = probed.nextEventAt(last);
        if (next == kCycleNever)
            break;
        ASSERT_GT(next, last);
        probed.tick(next);
        last = next;
        ASSERT_LT(last, 10'000u);
    }
    EXPECT_TRUE(probed.coreDrained(0));
    EXPECT_EQ(last, drain);
    // A late wake would also shift an issue or retire cycle.
    const obs::TraceBuffer want = ticked_sink.snapshot();
    const obs::TraceBuffer got = probed_sink.snapshot();
    ASSERT_EQ(got.events.size(), want.events.size());
    std::size_t issued = 0;
    for (std::size_t i = 0; i < want.events.size(); ++i) {
        EXPECT_EQ(got.events[i].cycle, want.events[i].cycle) << i;
        EXPECT_EQ(got.events[i].kind, want.events[i].kind) << i;
        EXPECT_EQ(got.events[i].b, want.events[i].b) << i;
        issued += want.events[i].kind == obs::EventKind::Issue;
    }
    EXPECT_EQ(issued, 5u);
}

} // namespace
