/**
 * @file
 * Tests for the parallel experiment runner: thread-count-independent
 * determinism (finish cycles, GM speedups, exported JSON), fault
 * containment of failing jobs, result ordering, and the progress
 * callback contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "sim/trace.hh"
#include "workloads/phases.hh"
#include "workloads/suite.hh"

namespace occamy
{
namespace
{

/** Small pair/policy sweep: 6 pairs x {Private, Elastic}. */
std::vector<runner::JobSpec>
smallSweep()
{
    auto pairs = workloads::specPairs();
    pairs.resize(6);
    return runner::pairSweepJobs(
        pairs, {SharingPolicy::Private, SharingPolicy::Elastic});
}

runner::SweepResult
runWithThreads(unsigned threads)
{
    runner::RunnerOptions opt;
    opt.numThreads = threads;
    return runner::Runner(opt).run(smallSweep());
}

double
gmElasticSpeedup(const runner::SweepResult &sweep)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i + 1 < sweep.jobs.size(); i += 2) {
        const Cycle base = sweep.jobs[i].result.cores[1].finish;
        const Cycle elastic = sweep.jobs[i + 1].result.cores[1].finish;
        log_sum += std::log(static_cast<double>(base) /
                            static_cast<double>(elastic));
        ++n;
    }
    return std::exp(log_sum / static_cast<double>(n));
}

TEST(Runner, DeterministicAcrossThreadCounts)
{
    const runner::SweepResult serial = runWithThreads(1);
    const runner::SweepResult parallel = runWithThreads(4);

    ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
    EXPECT_TRUE(serial.allOk());
    EXPECT_TRUE(parallel.allOk());

    for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
        SCOPED_TRACE(serial.jobs[i].label);
        EXPECT_EQ(serial.jobs[i].id, i);
        EXPECT_EQ(parallel.jobs[i].id, i);
        EXPECT_EQ(serial.jobs[i].label, parallel.jobs[i].label);
        const auto &sc = serial.jobs[i].result.cores;
        const auto &pc = parallel.jobs[i].result.cores;
        ASSERT_EQ(sc.size(), pc.size());
        for (std::size_t c = 0; c < sc.size(); ++c)
            EXPECT_EQ(sc[c].finish, pc[c].finish);
    }

    EXPECT_DOUBLE_EQ(gmElasticSpeedup(serial),
                     gmElasticSpeedup(parallel));
    EXPECT_GT(gmElasticSpeedup(serial), 1.0);

    // The aggregated export is byte-identical, wall-clock excluded.
    EXPECT_EQ(runner::sweepToJson(serial), runner::sweepToJson(parallel));
    std::ostringstream scsv, pcsv;
    runner::writeSweepCsv(scsv, serial);
    runner::writeSweepCsv(pcsv, parallel);
    EXPECT_EQ(scsv.str(), pcsv.str());
}

/** Thread-count independence holds on clustered 16-core machines too:
 *  the inter-cluster arbiter and migration bookkeeping are part of the
 *  deterministic artifact set (JSON incl. the per-cluster block, CSV
 *  incl. the cluster columns). */
TEST(Runner, ClusteredSweepDeterministicAcrossThreadCounts)
{
    const auto jobs = [] {
        auto pairs = workloads::specPairs();
        pairs.resize(3);
        return runner::pairSweepJobs(
            pairs, {SharingPolicy::Private, SharingPolicy::Elastic},
            40'000'000, [](MachineConfig &cfg) {
                cfg = MachineConfig::Builder(cfg.policy)
                          .topology(4, 4)
                          .build();
            });
    };
    const auto runWith = [&](unsigned threads) {
        runner::RunnerOptions opt;
        opt.numThreads = threads;
        return runner::Runner(opt).run(jobs());
    };

    const runner::SweepResult serial = runWith(1);
    const runner::SweepResult parallel = runWith(4);
    ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
    EXPECT_TRUE(serial.allOk());
    EXPECT_TRUE(parallel.allOk());

    for (const auto &j : serial.jobs) {
        SCOPED_TRACE(j.label);
        ASSERT_EQ(j.result.clusters.size(), 4u);
        EXPECT_GT(j.result.arbiterRebalances, 0u);
    }

    EXPECT_EQ(runner::sweepToJson(serial), runner::sweepToJson(parallel));
    std::ostringstream scsv, pcsv;
    runner::writeSweepCsv(scsv, serial);
    runner::writeSweepCsv(pcsv, parallel);
    EXPECT_EQ(scsv.str(), pcsv.str());
    // The clustered columns actually made it into the export.
    EXPECT_NE(scsv.str().find("cluster3_dram_share_bpc"),
              std::string::npos);
    EXPECT_NE(runner::sweepToJson(serial).find("\"clusters\":["),
              std::string::npos);
}

TEST(Runner, FaultContainment)
{
    auto jobs = smallSweep();
    // Job 3 cannot finish a single workload in one cycle: it must come
    // back Failed (with its diagnostic) without disturbing the rest.
    jobs[3].maxCycles = 1;

    runner::RunnerOptions opt;
    opt.numThreads = 4;
    const runner::SweepResult sweep = runner::Runner(opt).run(jobs);

    ASSERT_EQ(sweep.jobs.size(), jobs.size());
    EXPECT_EQ(sweep.failed(), 1u);
    EXPECT_FALSE(sweep.allOk());
    EXPECT_EQ(sweep.jobs[3].status, runner::JobStatus::Failed);
    EXPECT_NE(sweep.jobs[3].error.find("cycle cap"), std::string::npos);
    EXPECT_TRUE(sweep.jobs[3].result.timedOut);
    for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
        if (i == 3)
            continue;
        SCOPED_TRACE(i);
        EXPECT_TRUE(sweep.jobs[i].ok()) << sweep.jobs[i].error;
        EXPECT_GT(sweep.jobs[i].result.cores[1].finish, 0u);
    }

    // The sweep JSON reports the failure without losing the ok jobs.
    const std::string json = runner::sweepToJson(sweep);
    EXPECT_NE(json.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"failed\":1"), std::string::npos);
}

TEST(Runner, InfeasibleSpecIsContained)
{
    // Three workload slots on a two-core machine: System rejects the
    // third slot, and the runner must contain the exception.
    runner::JobSpec bad;
    bad.label = "infeasible";
    bad.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    const auto loop = workloads::makeNamedPhase("wsm51", 4096);
    bad.workloads = {{"a", {loop}}, {"b", {loop}}, {"c", {loop}}};

    const runner::JobResult r = runner::Runner::runOne(bad);
    EXPECT_EQ(r.status, runner::JobStatus::Failed);
    EXPECT_FALSE(r.error.empty());
}

TEST(Runner, ProgressCallbackReachesCompletion)
{
    auto pairs = workloads::specPairs();
    pairs.resize(2);
    auto jobs = runner::pairSweepJobs(pairs, {SharingPolicy::Private});

    runner::Progress last;
    std::size_t calls = 0;
    runner::RunnerOptions opt;
    opt.numThreads = 2;
    opt.onProgress = [&](const runner::Progress &p) {
        last = p;
        ++calls;
    };
    const runner::SweepResult sweep = runner::Runner(opt).run(jobs);

    EXPECT_TRUE(sweep.allOk());
    EXPECT_GE(calls, 1u);
    EXPECT_EQ(last.total, jobs.size());
    EXPECT_EQ(last.done, jobs.size());
    EXPECT_EQ(last.running, 0u);
    EXPECT_EQ(last.failed, 0u);
}

TEST(Runner, TrafficSweepDeterministicAcrossThreadCounts)
{
    // The acceptance property of the traffic engine: the same seeded
    // sweep exports byte-identical JSON and CSV whether it runs on one
    // worker thread or four.
    runner::JobSpec tmpl;
    traffic::TrafficConfig &tc = tmpl.traffic;
    tc.process = "poisson";
    tc.tenants = 4;
    tc.seed = 7;
    tc.jobsPerTenant = 2;
    tc.meanGapCycles = 100'000.0;
    tc.sloCycles = 1'500'000;
    const auto jobs = runner::trafficSweepJobs(
        tmpl, {SharingPolicy::Private, SharingPolicy::Elastic},
        {"fcfs", "sjf", "edf", "oi"});
    ASSERT_EQ(jobs.size(), 8u);

    auto runWith = [&](unsigned threads) {
        runner::RunnerOptions opt;
        opt.numThreads = threads;
        return runner::Runner(opt).run(jobs);
    };
    const runner::SweepResult serial = runWith(1);
    const runner::SweepResult parallel = runWith(4);
    EXPECT_TRUE(serial.allOk());
    EXPECT_TRUE(parallel.allOk());

    const std::string json = runner::sweepToJson(serial);
    EXPECT_EQ(json, runner::sweepToJson(parallel));
    std::ostringstream scsv, pcsv;
    runner::writeSweepCsv(scsv, serial);
    runner::writeSweepCsv(pcsv, parallel);
    EXPECT_EQ(scsv.str(), pcsv.str());

    // The exports actually carry the SLO metrics.
    EXPECT_NE(json.find("\"latency_p50\":"), std::string::npos);
    EXPECT_NE(json.find("\"latency_p99\":"), std::string::npos);
    EXPECT_NE(json.find("\"fairness_jain\":"), std::string::npos);
    EXPECT_NE(json.find("\"queueing_delay_mean\":"), std::string::npos);
    EXPECT_NE(scsv.str().find("latency_p50"), std::string::npos);
    EXPECT_NE(scsv.str().find("fairness_jain"), std::string::npos);

    // Every scheduler replayed the identical arrival stream: the
    // arrival count is uniform across the sweep.
    for (const auto &j : serial.jobs) {
        SCOPED_TRACE(j.label);
        ASSERT_TRUE(j.hasTraffic);
        EXPECT_EQ(j.trafficMetrics.arrivals, 8u);
        EXPECT_EQ(j.trafficMetrics.completed, 8u);
    }
}

TEST(Runner, UnknownTrafficNamesAreContained)
{
    runner::JobSpec bad;
    bad.label = "bad-process";
    bad.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    bad.traffic.process = "nonesuch";
    const runner::JobResult r = runner::Runner::runOne(bad);
    EXPECT_EQ(r.status, runner::JobStatus::Failed);
    EXPECT_NE(r.error.find("unknown traffic process"),
              std::string::npos);

    runner::JobSpec sched;
    sched.label = "bad-scheduler";
    sched.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    sched.traffic.process = "poisson";
    sched.traffic.scheduler = "nonesuch";
    const runner::JobResult r2 = runner::Runner::runOne(sched);
    EXPECT_EQ(r2.status, runner::JobStatus::Failed);
    EXPECT_NE(r2.error.find("unknown traffic scheduler"),
              std::string::npos);
}

TEST(Runner, UnknownAdmissionNamesAndBadCapsAreContained)
{
    runner::JobSpec bad;
    bad.label = "bad-admission";
    bad.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    bad.traffic.process = "poisson";
    bad.traffic.admission = "nonesuch";
    const runner::JobResult r = runner::Runner::runOne(bad);
    EXPECT_EQ(r.status, runner::JobStatus::Failed);
    EXPECT_NE(r.error.find("unknown admission policy"),
              std::string::npos);

    runner::JobSpec cap;
    cap.label = "bad-cap";
    cap.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    cap.traffic.process = "poisson";
    cap.traffic.admission = "static-cap";
    cap.traffic.admissionCap = 0;
    const runner::JobResult r2 = runner::Runner::runOne(cap);
    EXPECT_EQ(r2.status, runner::JobStatus::Failed);
    EXPECT_NE(r2.error.find("admission cap"), std::string::npos);
}

TEST(Runner, AdmissionSweepExportsAreDeterministicAndGated)
{
    // A mixed sweep: one admission-free job and one admission-
    // controlled storm. Exports must stay byte-identical across
    // runner thread counts, carry shed/defer/goodput only for the
    // admission job, and leave admission-free rows with empty CSV
    // cells (distinguishable from "policy shed nothing").
    auto specFor = [](const char *adm) {
        runner::JobSpec spec;
        spec.label = std::string("adm-") + adm;
        spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
        spec.traffic.process = "poisson";
        spec.traffic.tenants = 4;
        spec.traffic.seed = 11;
        spec.traffic.jobsPerTenant = 4;
        spec.traffic.meanGapCycles = 25'000.0;
        spec.traffic.sloCycles = 600'000;
        spec.traffic.admission = adm;
        spec.traffic.admissionCap = 2;
        return spec;
    };
    std::vector<runner::JobSpec> jobs = {specFor("none"),
                                         specFor("slo-aware")};
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].id = i;

    auto runWith = [&](unsigned threads) {
        runner::RunnerOptions opt;
        opt.numThreads = threads;
        return runner::Runner(opt).run(jobs);
    };
    const runner::SweepResult serial = runWith(1);
    const runner::SweepResult parallel = runWith(4);
    ASSERT_TRUE(serial.allOk());
    ASSERT_TRUE(parallel.allOk());
    EXPECT_EQ(runner::sweepToJson(serial),
              runner::sweepToJson(parallel));
    std::ostringstream scsv, pcsv;
    runner::writeSweepCsv(scsv, serial);
    runner::writeSweepCsv(pcsv, parallel);
    EXPECT_EQ(scsv.str(), pcsv.str());

    EXPECT_FALSE(serial.jobs[0].hasAdmission);
    EXPECT_TRUE(serial.jobs[1].hasAdmission);

    // JSON gating: shed/goodput appear in the sweep (the admission
    // job), but an admission-free sweep carries none of them.
    const std::string json = runner::sweepToJson(serial);
    EXPECT_NE(json.find("\"shed\":"), std::string::npos);
    EXPECT_NE(json.find("\"goodput\":"), std::string::npos);
    const runner::SweepResult plain =
        runner::Runner().run({specFor("none")});
    ASSERT_TRUE(plain.allOk());
    const std::string plain_json = runner::sweepToJson(plain);
    EXPECT_EQ(plain_json.find("\"shed\":"), std::string::npos);
    EXPECT_EQ(plain_json.find("\"goodput\":"), std::string::npos);
    EXPECT_EQ(plain_json.find("\"deferrals\":"), std::string::npos);
    EXPECT_EQ(plain_json.find("\"retries\":"), std::string::npos);

    // CSV gating: the mixed sweep has the columns, and the admission-
    // free row leaves those cells empty, not zero.
    const std::string csv = scsv.str();
    EXPECT_NE(csv.find(",shed,deferrals,goodput"), std::string::npos);
    auto cells = [](const std::string &row) {
        std::vector<std::string> out;
        std::istringstream is(row);
        std::string cell;
        while (std::getline(is, cell, ','))
            out.push_back(cell);
        if (!row.empty() && row.back() == ',')
            out.emplace_back();
        return out;
    };
    std::istringstream lines(csv);
    std::string header, line, none_row, slo_row;
    std::getline(lines, header);
    while (std::getline(lines, line)) {
        if (line.find("adm-none") != std::string::npos)
            none_row = line;
        if (line.find("adm-slo-aware") != std::string::npos)
            slo_row = line;
    }
    ASSERT_FALSE(none_row.empty());
    ASSERT_FALSE(slo_row.empty());
    const std::vector<std::string> cols = cells(header);
    const std::size_t shed_col =
        std::find(cols.begin(), cols.end(), "shed") - cols.begin();
    ASSERT_LT(shed_col, cols.size());
    for (std::size_t c = shed_col; c < shed_col + 3; ++c) {
        EXPECT_TRUE(cells(none_row)[c].empty()) << "col " << c;
        EXPECT_FALSE(cells(slo_row)[c].empty()) << "col " << c;
    }
    std::ostringstream plain_csv;
    runner::writeSweepCsv(plain_csv, plain);
    EXPECT_EQ(plain_csv.str().find("shed"), std::string::npos);
}

TEST(Runner, RetryCountsAreExportedOnlyWhenABudgetExists)
{
    runner::JobSpec spec;
    spec.label = "retry-export";
    spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    const auto w8 = workloads::specWorkload(8);
    spec.workloads.emplace_back(w8.name, w8.loops);

    // Default: no retry budget, no "retries" field anywhere.
    const runner::SweepResult bare = runner::Runner().run({spec});
    ASSERT_TRUE(bare.allOk());
    EXPECT_EQ(bare.jobs[0].retryBudget, 0u);
    EXPECT_EQ(runner::sweepToJson(bare).find("\"retries\":"),
              std::string::npos);
    std::ostringstream bare_csv;
    runner::writeSweepCsv(bare_csv, bare);
    EXPECT_EQ(bare_csv.str().find("retries"), std::string::npos);

    // With a budget, the field appears (0 used on a clean run) so
    // flaky-host forensics can tell "no budget" from "never retried".
    runner::RunnerOptions opt;
    opt.transientRetries = 2;
    const runner::SweepResult budgeted = runner::Runner(opt).run({spec});
    ASSERT_TRUE(budgeted.allOk());
    EXPECT_EQ(budgeted.jobs[0].retryBudget, 2u);
    EXPECT_EQ(budgeted.jobs[0].retriesUsed, 0u);
    EXPECT_NE(runner::sweepToJson(budgeted).find("\"retries\":0"),
              std::string::npos);
    std::ostringstream bcsv;
    runner::writeSweepCsv(bcsv, budgeted);
    EXPECT_NE(bcsv.str().find("retries"), std::string::npos);
}

TEST(Runner, SimThreadsForwardsAndKeepsSweepExportsIdentical)
{
    // JobSpec::simThreads reaches RunOptions::simThreads: a clustered
    // sweep exports byte-identical JSON/CSV whether each job's own
    // cycle loop runs serial or on a worker pool (and composes with
    // the runner's job-level threads).
    auto jobsWith = [](unsigned sim_threads) {
        std::vector<runner::JobSpec> jobs;
        for (const SharingPolicy p :
             {SharingPolicy::Elastic, SharingPolicy::Private}) {
            runner::JobSpec spec;
            spec.id = jobs.size();
            spec.label = std::string("2x2/") + policyName(p);
            spec.cfg =
                MachineConfig::Builder(p).topology(2, 2).build();
            const auto w6 = workloads::specWorkload(6);
            const auto w16 = workloads::specWorkload(16);
            for (unsigned c = 0; c < 4; ++c)
                spec.workloads.emplace_back(c % 2 ? w16.name : w6.name,
                                            c % 2 ? w16.loops
                                                  : w6.loops);
            spec.simThreads = sim_threads;
            jobs.push_back(std::move(spec));
        }
        return jobs;
    };

    runner::RunnerOptions opt;
    opt.numThreads = 2;
    const runner::SweepResult serial =
        runner::Runner(opt).run(jobsWith(1));
    const runner::SweepResult pooled =
        runner::Runner(opt).run(jobsWith(2));
    ASSERT_TRUE(serial.allOk());
    ASSERT_TRUE(pooled.allOk());
    EXPECT_EQ(runner::sweepToJson(serial), runner::sweepToJson(pooled));
    std::ostringstream scsv, pcsv;
    runner::writeSweepCsv(scsv, serial);
    runner::writeSweepCsv(pcsv, pooled);
    EXPECT_EQ(scsv.str(), pcsv.str());
}

TEST(Runner, BatchJobsRunThroughTheQueue)
{
    runner::JobSpec spec;
    spec.label = "batch";
    spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    const auto w8 = workloads::specWorkload(8);
    const auto w17 = workloads::specWorkload(17);
    spec.batch = {{w8.name, w8.loops}, {w17.name, w17.loops}};

    const runner::JobResult r = runner::Runner::runOne(spec);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.result.batch.size(), 2u);
}


TEST(Runner, SweepJsonEscapesControlCharactersInShortForm)
{
    runner::SweepResult sweep;
    runner::JobResult j;
    j.label = "a\nb\t\"c\"\\";
    j.error = "x\ry\x01";
    sweep.jobs.push_back(j);
    const std::string json = runner::sweepToJson(sweep);
    EXPECT_NE(json.find(R"("label":"a\nb\t\"c\"\\")"), std::string::npos)
        << json;
    EXPECT_NE(json.find(R"("error":"x\ry\u0001")"), std::string::npos)
        << json;
}

TEST(Runner, CappedRunReportsTheCyclesItCovered)
{
    runner::JobSpec spec;
    spec.label = "capped";
    spec.cfg = MachineConfig::forPolicy(SharingPolicy::Private, 2);
    const auto w6 = workloads::specWorkload(6);
    const auto w16 = workloads::specWorkload(16);
    spec.workloads = {{w6.name, w6.loops}, {w16.name, w16.loops}};
    spec.maxCycles = 2000;

    const runner::JobResult r = runner::Runner::runOne(spec);
    EXPECT_FALSE(r.ok());
    ASSERT_TRUE(r.result.timedOut);
    EXPECT_EQ(r.result.cycles, 2000u);
    EXPECT_GT(r.result.simdUtil, 0.0);
    EXPECT_LE(r.result.simdUtil, 1.0);
    // Neither core finished, so each open phase ends at the cap.
    for (const CoreRunResult &core : r.result.cores) {
        ASSERT_FALSE(core.phases.empty());
        EXPECT_EQ(core.phases.back().end, 2000u);
        for (const PhaseResult &ph : core.phases)
            EXPECT_LE(ph.issueRate, 2.0);
    }
}

TEST(Runner, SelectPairsNamesTheBadToken)
{
    EXPECT_EQ(runner::selectPairs("spec").size(), 16u);
    const auto two = runner::selectPairs("1,6+16");
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].label, workloads::allPairs()[0].label);
    EXPECT_EQ(two[1].label, "6+16");
    for (const char *bad : {"6+16,bogus", "0", "26", "1x", "6+99", ","}) {
        try {
            runner::selectPairs(bad);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const std::invalid_argument &e) {
            const std::string token =
                std::string(bad) == "6+16,bogus" ? "bogus" : bad;
            EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
                << e.what();
        }
    }
}

/** @p tb's events from cycle @p from on, one line each, with interned
 *  names resolved: string ids are private to the sink that made them. */
std::vector<std::string>
eventLines(const obs::TraceBuffer &tb, Cycle from)
{
    std::vector<std::string> out;
    for (const obs::Event &e : tb.events) {
        if (e.cycle < from)
            continue;
        const bool named = e.kind == obs::EventKind::PhaseBegin ||
                           e.kind == obs::EventKind::PhaseEnd ||
                           e.kind == obs::EventKind::BatchDispatch;
        std::ostringstream os;
        os << e.cycle << ' ' << static_cast<int>(e.kind) << ' ' << e.core
           << ' ' << (named ? tb.str(e.a) : std::to_string(e.a)) << ' '
           << e.b << ' ' << e.x << ' ' << e.y;
        out.push_back(os.str());
    }
    return out;
}

void
expectSameRun(const RunResult &got, const RunResult &want)
{
    EXPECT_EQ(trace::toJson(got), trace::toJson(want));
    EXPECT_EQ(got.statsText, want.statsText);
    ASSERT_EQ(got.cores.size(), want.cores.size());
    for (std::size_t c = 0; c < got.cores.size(); ++c) {
        EXPECT_EQ(got.cores[c].busyLanesTimeline,
                  want.cores[c].busyLanesTimeline);
        EXPECT_EQ(got.cores[c].allocLanesTimeline,
                  want.cores[c].allocLanesTimeline);
    }
}

/** occamy-serve's use of the one boot path: boot a Job, advance it in
 *  steps, checkpoint it, finish it; restore the checkpoint into a
 *  second Job and finish that too. Both must match Runner::runOne. */
TEST(Runner, SteppedAndRestoredJobsMatchRunOne)
{
    runner::JobSpec flat;
    flat.label = "6+16/Occamy";
    flat.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    const auto w6 = workloads::specWorkload(6);
    const auto w16 = workloads::specWorkload(16);
    flat.workloads = {{w6.name, w6.loops}, {w16.name, w16.loops}};

    runner::JobSpec traffic;
    traffic.label = "bursty/Occamy/fcfs 2x2";
    traffic.cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                      .topology(2, 2)
                      .build();
    traffic.traffic.process = "bursty";
    traffic.traffic.tenants = 2;
    traffic.traffic.seed = 3;
    traffic.traffic.jobsPerTenant = 2;
    traffic.traffic.meanGapCycles = 20'000;
    traffic.traffic.sloCycles = 150'000;
    traffic.traffic.admission = "slo-aware";
    traffic.traffic.admissionCap = 2;

    constexpr Cycle kStep = 25'000;
    constexpr Cycle kCkptAt = 2 * kStep;
    for (runner::JobSpec spec : {flat, traffic}) {
        SCOPED_TRACE(spec.label);
        // Every category but the per-instruction ones, which would
        // only make the comparison slow.
        spec.traceEvents = obs::kEvAll & ~(obs::kEvPipeline | obs::kEvMem);
        spec.snapshotEvery = 20'000;
        const runner::JobResult ref = runner::Runner::runOne(spec);
        ASSERT_TRUE(ref.ok()) << ref.error;
        ASSERT_FALSE(eventLines(ref.trace, kCkptAt).empty());

        runner::Job stepped(spec);
        EXPECT_EQ(stepped.hasTraffic(), spec.traffic.enabled());
        EXPECT_EQ(stepped.hasAdmission(), spec.traffic.enabled());
        stepped.boot();
        std::stringstream ckpt;
        while (!stepped.sys().advance(stepped.sys().now() + kStep))
            if (stepped.sys().now() == kCkptAt)
                stepped.sys().saveCheckpoint(ckpt);
        ASSERT_GT(ckpt.str().size(), 0u) << "finished before the save";
        const RunResult got = stepped.sys().finalize();
        expectSameRun(got, ref.result);
        EXPECT_EQ(stepped.ff().cyclesSimulated, ref.ff.cyclesSimulated);
        std::ostringstream a, b;
        obs::writeChromeTrace(a, stepped.sink()->take(), got.snapshots);
        obs::writeChromeTrace(b, ref.trace, ref.result.snapshots);
        EXPECT_EQ(a.str(), b.str());

        runner::Job restored(spec);
        restored.boot(&ckpt);
        EXPECT_EQ(restored.sys().now(), kCkptAt);
        while (!restored.sys().advance(restored.sys().now() + kStep)) {
        }
        expectSameRun(restored.sys().finalize(), ref.result);
        EXPECT_EQ(eventLines(restored.sink()->take(), kCkptAt),
                  eventLines(ref.trace, kCkptAt));
    }
}

} // namespace
} // namespace occamy
