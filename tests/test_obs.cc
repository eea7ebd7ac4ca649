/**
 * @file
 * Tests of the observability layer (src/obs): sink semantics, event
 * capture during real simulations, export formats, snapshot plumbing,
 * and the determinism guarantees the golden tests lean on — the same
 * job must produce byte-identical traces run-to-run and whether the
 * runner uses 1 worker thread or 4.
 */

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "obs/events.hh"
#include "obs/export.hh"
#include "obs/sink.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "sim/system.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

using namespace occamy;

namespace
{

// --- Sink unit behavior. ---

obs::Event
ev(Cycle cycle, obs::EventKind kind, std::uint64_t a = 0)
{
    obs::Event e;
    e.cycle = cycle;
    e.kind = kind;
    e.a = a;
    return e;
}

TEST(RingSink, RecordsInOrderAndDropsOldest)
{
    obs::RingSink sink(4);
    for (std::uint64_t i = 0; i < 7; ++i)
        sink.record(ev(i, obs::EventKind::Dispatch, i));
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 3u);

    const obs::TraceBuffer buf = sink.snapshot();
    ASSERT_EQ(buf.events.size(), 4u);
    EXPECT_EQ(buf.dropped, 3u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(buf.events[i].a, i + 3) << "oldest-first order";
        EXPECT_EQ(buf.events[i].cycle, i + 3);
    }
}

TEST(RingSink, MaskFiltersWholeCategories)
{
    obs::RingSink sink(64, obs::kEvPartition | obs::kEvReconfig);
    EXPECT_TRUE(sink.wants(obs::EventKind::PartitionDecision));
    EXPECT_TRUE(sink.wants(obs::EventKind::VlApply));
    EXPECT_FALSE(sink.wants(obs::EventKind::Dispatch));
    EXPECT_FALSE(sink.wants(obs::EventKind::DramRead));

    sink.record(ev(1, obs::EventKind::Dispatch));
    sink.record(ev(2, obs::EventKind::PartitionDecision));
    sink.record(ev(3, obs::EventKind::DramRead));
    sink.record(ev(4, obs::EventKind::VlApply));
    const obs::TraceBuffer buf = sink.snapshot();
    ASSERT_EQ(buf.events.size(), 2u);
    EXPECT_EQ(buf.events[0].kind, obs::EventKind::PartitionDecision);
    EXPECT_EQ(buf.events[1].kind, obs::EventKind::VlApply);
}

TEST(RingSink, InterningDeduplicates)
{
    obs::RingSink sink(8);
    const auto a = sink.internString("rho_eos1");
    const auto b = sink.internString("wsm51");
    const auto c = sink.internString("rho_eos1");
    EXPECT_EQ(a, c);
    EXPECT_NE(a, b);
    const obs::TraceBuffer buf = sink.snapshot();
    ASSERT_EQ(buf.strings.size(), 2u);
    EXPECT_EQ(buf.str(a), "rho_eos1");
    EXPECT_EQ(buf.str(b), "wsm51");
    EXPECT_EQ(buf.str(999), "?");
}

TEST(RingSink, TakeMovesAndClearResets)
{
    obs::RingSink sink(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.record(ev(i, obs::EventKind::Issue));
    const obs::TraceBuffer buf = sink.take();
    EXPECT_EQ(buf.events.size(), 4u);
    EXPECT_EQ(buf.dropped, 2u);
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);

    sink.record(ev(9, obs::EventKind::Issue));
    EXPECT_EQ(sink.size(), 1u);
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
}

TEST(RingSink, PartlyFilledRingWrapsLikeAFullOne)
{
    obs::RingSink sink(4);
    sink.record(ev(1, obs::EventKind::Issue, 1));
    sink.record(ev(2, obs::EventKind::Issue, 2));
    obs::TraceBuffer buf = sink.snapshot();
    ASSERT_EQ(buf.events.size(), 2u);
    EXPECT_EQ(buf.events[0].a, 1u) << "oldest first";
    EXPECT_EQ(buf.events[1].a, 2u);
    EXPECT_EQ(sink.dropped(), 0u);

    for (std::uint64_t i = 3; i <= 7; ++i)
        sink.record(ev(i, obs::EventKind::Issue, i));
    buf = sink.snapshot();
    ASSERT_EQ(buf.events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(buf.events[i].a, i + 4) << "events 4-7 kept";
    EXPECT_EQ(sink.dropped(), 3u);

    // A taken ring starts filling from empty again.
    sink.take();
    sink.record(ev(8, obs::EventKind::Issue, 8));
    buf = sink.snapshot();
    ASSERT_EQ(buf.events.size(), 1u);
    EXPECT_EQ(buf.events[0].a, 8u);
    EXPECT_EQ(buf.dropped, 0u);

    // So does one taken before it ever filled.
    obs::RingSink young(4);
    young.record(ev(1, obs::EventKind::Issue, 1));
    young.record(ev(2, obs::EventKind::Issue, 2));
    young.take();
    young.record(ev(3, obs::EventKind::Issue, 3));
    buf = young.snapshot();
    ASSERT_EQ(buf.events.size(), 1u);
    EXPECT_EQ(buf.events[0].a, 3u);
}

/** Peak resident set of this process, MiB (Linux reports KiB). */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

TEST(RingSink, CapacityIsNotTouchedUpFront)
{
    // Eight default-capacity rings are 8 x 48 MiB of address space; an
    // eagerly filled ring would make all of it resident. ru_maxrss is a
    // peak, so this needs a process that has not peaked higher yet: the
    // RingSink suite runs first in this binary.
    const double before = peakRssMb();
    std::vector<std::unique_ptr<obs::RingSink>> sinks;
    for (int s = 0; s < 8; ++s) {
        sinks.push_back(std::make_unique<obs::RingSink>());
        for (std::uint64_t i = 0; i < 10; ++i)
            sinks.back()->record(ev(i, obs::EventKind::Issue, i));
    }
    for (const auto &sink : sinks)
        EXPECT_EQ(sink->size(), 10u);
    EXPECT_LT(peakRssMb() - before, 64.0);
}

TEST(EventMask, ParsesCategoryLists)
{
    EXPECT_EQ(obs::parseEventMask("all"), obs::kEvAll);
    EXPECT_EQ(obs::parseEventMask(""), 0u);
    EXPECT_EQ(obs::parseEventMask("phase,partition"),
              obs::kEvPhase | obs::kEvPartition);
    EXPECT_EQ(obs::parseEventMask("reconfig,mem,sched"),
              obs::kEvReconfig | obs::kEvMem | obs::kEvSched);
    EXPECT_EQ(obs::parseEventMask("pipeline,bogus"), obs::kEvPipeline)
        << "unknown tokens ignored";
}

TEST(EventMask, EveryKindHasACategoryAndName)
{
    for (int k = 0; k <= static_cast<int>(obs::EventKind::BatchDispatch);
         ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        EXPECT_NE(obs::categoryOf(kind), 0u) << k;
        EXPECT_STRNE(obs::eventKindName(kind), "") << k;
    }
    EXPECT_STREQ(obs::eventKindName(obs::EventKind::PartitionDecision),
                 "partition_decision");
}

// --- Capture from a real simulation. ---

/** Build the standard traced job: pair 6+16 under the elastic policy
 *  (reconfigures several times, exercising every event category). */
runner::JobSpec
tracedJob(obs::EventMask mask = obs::kEvAll)
{
    const auto w0 = workloads::specWorkload(6);
    const auto w1 = workloads::specWorkload(16);
    runner::JobSpec spec;
    spec.label = "6+16/Occamy";
    spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    spec.workloads.emplace_back(w0.name, w0.loops);
    spec.workloads.emplace_back(w1.name, w1.loops);
    spec.traceEvents = mask;
    spec.traceCapacity = 1u << 22;  // Large enough to never drop.
    return spec;
}

TEST(Capture, ElasticRunEmitsEveryExpectedKind)
{
    const runner::JobResult job = runner::Runner::runOne(tracedJob());
    ASSERT_TRUE(job.ok()) << job.error;
    const obs::TraceBuffer &buf = job.trace;
    ASSERT_FALSE(buf.empty());
    EXPECT_EQ(buf.dropped, 0u);

    std::vector<std::size_t> count(
        static_cast<std::size_t>(obs::EventKind::BatchDispatch) + 1, 0);
    Cycle prev = 0;
    for (const obs::Event &e : buf.events) {
        ++count[static_cast<std::size_t>(e.kind)];
        EXPECT_GE(e.cycle, prev) << "timestamps must be monotone";
        prev = e.cycle;
    }
    auto n = [&](obs::EventKind k) {
        return count[static_cast<std::size_t>(k)];
    };
    // The acceptance triad: pipeline dispatches, partition decisions,
    // reconfiguration steps.
    EXPECT_GT(n(obs::EventKind::Dispatch), 0u);
    EXPECT_GT(n(obs::EventKind::PartitionDecision), 0u);
    EXPECT_GT(n(obs::EventKind::VlRequest), 0u);
    EXPECT_GT(n(obs::EventKind::VlResolve), 0u);
    EXPECT_GT(n(obs::EventKind::VlApply), 0u);
    // And the rest of the taxonomy this workload must touch.
    EXPECT_GE(n(obs::EventKind::PhaseBegin), 2u) << "a phase per core";
    EXPECT_EQ(n(obs::EventKind::PhaseBegin), n(obs::EventKind::PhaseEnd));
    EXPECT_GT(n(obs::EventKind::Issue), 0u);
    EXPECT_GT(n(obs::EventKind::Retire), 0u);
    EXPECT_GT(n(obs::EventKind::OiUpdate), 0u);
    EXPECT_GT(n(obs::EventKind::RooflineEval), 0u);
    EXPECT_GT(n(obs::EventKind::PartitionPlan), 0u);
    EXPECT_GT(n(obs::EventKind::DramRead), 0u);

    // Issue/retire conservation: everything dispatched retires.
    EXPECT_EQ(n(obs::EventKind::Dispatch), n(obs::EventKind::Retire));
}

TEST(Capture, MaskSubsetsAreSubsequencesOfTheFullTrace)
{
    const runner::JobResult full = runner::Runner::runOne(tracedJob());
    const runner::JobResult part = runner::Runner::runOne(
        tracedJob(obs::kEvPartition | obs::kEvReconfig));
    ASSERT_TRUE(full.ok() && part.ok());
    ASSERT_FALSE(part.trace.empty());

    // Every partial event appears, in order, in the full trace.
    std::size_t j = 0;
    for (const obs::Event &e : part.trace.events) {
        EXPECT_TRUE((obs::categoryOf(e.kind) &
                     (obs::kEvPartition | obs::kEvReconfig)) != 0);
        while (j < full.trace.events.size() &&
               !(full.trace.events[j] == e))
            ++j;
        ASSERT_LT(j, full.trace.events.size())
            << "partial trace event missing from the full trace";
        ++j;
    }
}

TEST(Capture, TracingDoesNotPerturbSimulation)
{
    runner::JobSpec plain = tracedJob();
    plain.traceEvents = 0;
    const runner::JobResult with = runner::Runner::runOne(tracedJob());
    const runner::JobResult without = runner::Runner::runOne(plain);
    ASSERT_TRUE(with.ok() && without.ok());
    EXPECT_TRUE(without.trace.empty());
    EXPECT_EQ(trace::toJson(with.result), trace::toJson(without.result));
}

// --- Determinism: the property the golden suite depends on. ---

std::string
binaryBytes(const obs::TraceBuffer &buf)
{
    std::ostringstream os(std::ios::binary);
    obs::writeBinaryTrace(os, buf);
    return os.str();
}

TEST(Determinism, RepeatedRunsAreByteIdentical)
{
    const runner::JobResult a = runner::Runner::runOne(tracedJob());
    const runner::JobResult b = runner::Runner::runOne(tracedJob());
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_FALSE(a.trace.empty());
    EXPECT_EQ(binaryBytes(a.trace), binaryBytes(b.trace));
}

TEST(Determinism, TraceIdenticalAcrossRunnerThreadCounts)
{
    // A 2-pair x 2-policy sweep with tracing on, once on 1 thread and
    // once on 4: every job's trace must come back byte-identical.
    auto buildJobs = [] {
        const auto all = workloads::allPairs();
        std::vector<workloads::Pair> pairs;
        for (const auto &p : all)
            if (p.label == "6+16" || p.label == "1+13")
                pairs.push_back(p);
        auto jobs = runner::pairSweepJobs(
            pairs,
            {SharingPolicy::Private, SharingPolicy::Elastic});
        for (auto &spec : jobs) {
            spec.traceEvents = obs::kEvPhase | obs::kEvPartition |
                               obs::kEvReconfig | obs::kEvSched;
            spec.snapshotEvery = 50'000;
        }
        return jobs;
    };

    runner::RunnerOptions one;
    one.numThreads = 1;
    runner::RunnerOptions four;
    four.numThreads = 4;
    const auto serial = runner::Runner(one).run(buildJobs());
    const auto parallel = runner::Runner(four).run(buildJobs());

    ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
    for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
        const auto &s = serial.jobs[i];
        const auto &p = parallel.jobs[i];
        ASSERT_TRUE(s.ok()) << s.label << ": " << s.error;
        ASSERT_TRUE(p.ok()) << p.label << ": " << p.error;
        EXPECT_FALSE(s.trace.empty()) << s.label;
        EXPECT_EQ(binaryBytes(s.trace), binaryBytes(p.trace)) << s.label;
        EXPECT_EQ(trace::toJson(s.result), trace::toJson(p.result));
        EXPECT_EQ(s.result.snapshots.size(), p.result.snapshots.size());
    }
}

// --- Exporters. ---

TEST(Export, BinaryRoundTripsExactly)
{
    const runner::JobResult job = runner::Runner::runOne(tracedJob());
    ASSERT_TRUE(job.ok());
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    obs::writeBinaryTrace(ss, job.trace);
    const obs::TraceBuffer back = obs::readBinaryTrace(ss);
    EXPECT_EQ(back.dropped, job.trace.dropped);
    EXPECT_EQ(back.strings, job.trace.strings);
    ASSERT_EQ(back.events.size(), job.trace.events.size());
    for (std::size_t i = 0; i < back.events.size(); ++i)
        EXPECT_TRUE(back.events[i] == job.trace.events[i]) << i;
}

TEST(Export, BinaryRejectsGarbage)
{
    std::stringstream ss;
    ss << "definitely not a trace";
    EXPECT_THROW(obs::readBinaryTrace(ss), std::runtime_error);
}

TEST(Export, ChromeTraceIsStructurallySound)
{
    runner::JobSpec spec = tracedJob();
    spec.snapshotEvery = 50'000;
    const runner::JobResult job = runner::Runner::runOne(spec);
    ASSERT_TRUE(job.ok());
    std::ostringstream os;
    obs::writeChromeTrace(os, job.trace, job.result.snapshots);
    const std::string text = os.str();

    EXPECT_EQ(
        text.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0),
        0u);
    EXPECT_EQ(text.substr(text.size() - 2), "]}");
    // Phase slices come out as balanced duration events.
    auto occurrences = [&](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t pos = text.find(needle);
             pos != std::string::npos;
             pos = text.find(needle, pos + needle.size()))
            ++n;
        return n;
    };
    EXPECT_EQ(occurrences("\"ph\":\"B\""), occurrences("\"ph\":\"E\""));
    EXPECT_GT(occurrences("\"ph\":\"C\""), 0u) << "counter tracks";
    EXPECT_GT(occurrences("\"ph\":\"M\""), 0u) << "thread names";
    EXPECT_GT(occurrences("rho_eos"), 0u) << "interned phase names";
    // No unescaped raw control characters anywhere.
    for (char c : text)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);
}

TEST(Export, SnapshotsCsvHasHeaderAndSortedStats)
{
    runner::JobSpec spec = tracedJob(obs::kEvPhase);
    spec.snapshotEvery = 50'000;
    const runner::JobResult job = runner::Runner::runOne(spec);
    ASSERT_TRUE(job.ok());
    ASSERT_FALSE(job.result.snapshots.empty());

    for (const auto &snap : job.result.snapshots) {
        EXPECT_EQ(snap.cycle % 50'000, 0u);
        for (std::size_t i = 1; i < snap.values.size(); ++i)
            EXPECT_LT(snap.values[i - 1].first, snap.values[i].first)
                << "snapshot stats must be name-sorted";
    }

    std::ostringstream os;
    obs::writeSnapshotsCsv(os, job.result.snapshots);
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("cycle,stat,value\n", 0), 0u);
    EXPECT_NE(text.find("system.mem."), std::string::npos);
    EXPECT_NE(text.find("system.coproc."), std::string::npos);
}

} // namespace
