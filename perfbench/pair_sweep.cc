/**
 * @file
 * pair_sweep: the Fig. 10/11 catalog, every pair under every registered
 * policy on flat 2-core machines, as one runner::Runner sweep with
 * nproc workers. This is the figure-regeneration path.
 */

#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "bench.hh"
#include "compiler/compiler.hh"
#include "policy/sharing_model.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace occamy;

namespace
{

/** Set-up repetitions; setup_s is their median. One set-up takes well
 *  under a millisecond, so many samples are needed for a steady median. */
constexpr int kSetupReps = 31;

std::vector<runner::JobSpec>
buildJobs(bool tiny)
{
    std::vector<workloads::Pair> pairs = workloads::allPairs();
    if (tiny)
        pairs.resize(2);
    std::vector<SharingPolicy> policies;
    for (const policy::SharingModel *m : policy::allModels())
        policies.push_back(m->id());
    return runner::pairSweepJobs(pairs, policies);
}

double
geomean(const std::vector<double> &xs)
{
    double s = 0.0;
    for (double x : xs)
        s += std::log(x > 0 ? x : 1e-9);
    return xs.empty() ? 0.0 : std::exp(s / static_cast<double>(xs.size()));
}

/**
 * Mean absolute relative error (%) against the paper's seven reference
 * values: Fig. 10 core-1 GM speedups over Private (FTS 1.20, VLS 1.11,
 * Occamy 1.39) and Fig. 11 GM SIMD utilisation (Private 63.2%, FTS
 * 72.5%, VLS 70.8%, Occamy 84.2%).
 */
double
paperErrorPct(const runner::SweepResult &sw)
{
    const SharingPolicy order[] = {
        SharingPolicy::Private, SharingPolicy::Temporal,
        SharingPolicy::StaticSpatial, SharingPolicy::Elastic};
    std::map<std::string, std::map<SharingPolicy, const RunResult *>> byPair;
    for (const runner::JobResult &j : sw.jobs)
        byPair[j.label.substr(0, j.label.find('/'))][j.policy] = &j.result;
    std::vector<double> speedup[4], util[4];
    for (const auto &[pair, res] : byPair) {
        const RunResult *base = res.at(SharingPolicy::Private);
        for (int p = 0; p < 4; ++p) {
            const RunResult *r = res.at(order[p]);
            util[p].push_back(r->simdUtil);
            speedup[p].push_back(
                static_cast<double>(base->cores[1].finish) /
                static_cast<double>(r->cores[1].finish));
        }
    }
    const double refSpeedup[] = {1.0, 1.20, 1.11, 1.39};
    const double refUtil[] = {0.632, 0.725, 0.708, 0.842};
    double err = 0.0;
    for (int p = 1; p < 4; ++p)
        err += std::fabs(geomean(speedup[p]) / refSpeedup[p] - 1.0);
    for (int p = 0; p < 4; ++p)
        err += std::fabs(geomean(util[p]) / refUtil[p] - 1.0);
    return 100.0 * err / 7.0;
}

/** The traced pass: the same jobs run by perfbench's own worker pool
 *  calling the sim layer directly, with a span around every call. */
void
tracedPass(const std::vector<runner::JobSpec> &jobs,
           const runner::SweepResult &ref, unsigned workers,
           std::vector<SpanLog> &logs, Result &r)
{
    const Clock::time_point epoch = Clock::now();
    for (unsigned t = 0; t < workers; ++t)
        logs.emplace_back(epoch, t);
    std::vector<RunResult> results(jobs.size());
    std::vector<FastForwardStats> ffs(jobs.size());
    std::atomic<std::size_t> next{0};
    auto work = [&](unsigned t) {
        SpanLog *log = &logs[t];
        for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
            const runner::JobSpec &spec = jobs[i];
            Scope job(log, "bench.job", i);
            const policy::SharingModel &model = policy::model(spec.cfg.policy);
            for (std::size_t c = 0; c < spec.workloads.size(); ++c) {
                Scope s(log, "compiler.compile", i);
                Compiler comp(CompileOptions::forMachine(
                    spec.cfg,
                    model.perCoreFixedVl(spec.cfg, static_cast<CoreId>(c))));
                comp.compile(spec.workloads[c].first,
                             spec.workloads[c].second);
            }
            System sys(spec.cfg);
            for (std::size_t c = 0; c < spec.workloads.size(); ++c)
                sys.setWorkload(static_cast<CoreId>(c),
                                spec.workloads[c].first,
                                spec.workloads[c].second);
            RunOptions ro;
            ro.maxCycles = spec.maxCycles;
            ro.ffStats = &ffs[i];
            {
                Scope s(log, "sim.boot", i);
                sys.boot(ro);
            }
            {
                Scope s(log, "sim.advance", i);
                sys.advance();
            }
            Scope s(log, "sim.finalize", i);
            results[i] = sys.finalize();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(work, t);
    work(0);
    for (std::thread &th : pool)
        th.join();

    double cycles = 0, coreCycles = 0, ticked = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        r.check(results[i].cycles == ref.jobs[i].result.cycles &&
                    !results[i].timedOut,
                "direct replay of " + jobs[i].label +
                    " differs from its Runner result");
        cycles += static_cast<double>(ffs[i].cyclesSimulated);
        coreCycles += static_cast<double>(ffs[i].cyclesSimulated) *
                      jobs[i].cfg.numCores;
        ticked += static_cast<double>(ffs[i].cyclesTicked);
    }
    const double advance = spanSeconds(logs, "sim.advance");
    r.set("compiler.compile_ms", 1e3 * spanSeconds(logs, "compiler.compile"));
    r.set("compiler.programs",
          static_cast<double>(spanDurations(logs, "compiler.compile").size()));
    r.set("sim.boot_ms_p50", 1e3 * median(spanDurations(logs, "sim.boot")));
    r.set("sim.advance_s", advance);
    r.set("sim.finalize_ms", 1e3 * spanSeconds(logs, "sim.finalize"));
    r.set("sim.ns_per_cycle", 1e9 * advance / cycles);
    r.set("sim.ns_per_core_cycle", 1e9 * advance / coreCycles);
    r.set("sim.ns_per_ticked_cycle", 1e9 * advance / ticked);
    r.set("sim.ff_leverage", cycles / ticked);
}

/** obs: one job re-run with every event category into a RingSink,
 *  against the same job untraced (median of three each). */
void
obsOverhead(const runner::JobSpec &spec, Result &r)
{
    std::vector<double> off, on;
    std::uint64_t events = 0;
    for (int rep = 0; rep < 3; ++rep) {
        for (bool traced : {false, true}) {
            System sys(spec.cfg);
            for (std::size_t c = 0; c < spec.workloads.size(); ++c)
                sys.setWorkload(static_cast<CoreId>(c),
                                spec.workloads[c].first,
                                spec.workloads[c].second);
            obs::RingSink sink(1u << 22, obs::kEvAll);
            RunOptions ro;
            ro.maxCycles = spec.maxCycles;
            if (traced)
                ro.sink = &sink;
            const Clock::time_point t0 = Clock::now();
            sys.run(ro);
            (traced ? on : off).push_back(since(t0));
            if (traced)
                events = sink.size() + sink.dropped();
        }
    }
    r.set("obs.events", static_cast<double>(events));
    r.set("obs.trace_overhead", median(on) / median(off));
}

} // namespace

void
runPairSweep(const Options &o, Result &r)
{
    std::vector<runner::JobSpec> jobs;
    std::vector<double> setup;
    // Sampled before the first sweep and again after every sweep.
    // Samples taken only at process start read either ~0.35 or ~0.55 ms
    // from run to run, which made the median flip between the two.
    auto sampleSetup = [&] {
        for (int i = 0; i < kSetupReps; ++i) {
            const Clock::time_point t0 = Clock::now();
            jobs = buildJobs(o.tiny);
            setup.push_back(since(t0));
        }
    };
    sampleSetup();

    const unsigned workers = o.nproc;
    runner::RunnerOptions ropt;
    ropt.numThreads = workers;
    const runner::Runner run(ropt);
    std::vector<double> walls, jobMs;
    std::vector<double> cpus;
    runner::SweepResult first;
    std::string firstJson;
    const Clock::time_point start = Clock::now();
    // Untraced sweeps until the measured time is used up; the traced
    // pass needs one untraced sweep as its baseline.
    do {
        const Clock::time_point t0 = Clock::now();
        const double c0 = selfCpuSeconds();
        runner::SweepResult sw = run.run(jobs);
        walls.push_back(since(t0));
        cpus.push_back(selfCpuSeconds() - c0);
        sampleSetup();
        r.attempted += sw.jobs.size();
        r.failed += sw.failed();
        for (const runner::JobResult &j : sw.jobs)
            jobMs.push_back(j.wallMs);
        std::string json;
        {
            const Clock::time_point e0 = Clock::now();
            json = runner::sweepToJson(sw);
            if (walls.size() == 1)
                r.set("runner.export_ms", 1e3 * since(e0));
        }
        if (walls.size() == 1) {
            first = std::move(sw);
            firstJson = std::move(json);
        } else {
            r.check(json == firstJson,
                    "sweep export differs between repetitions");
        }
    } while (!o.trace && since(start) < o.seconds);

    Digest d;
    d.add(firstJson);
    r.digest = d.hex();

    double cycles = 0;
    std::vector<double> jobCycles;
    for (const runner::JobResult &j : first.jobs) {
        cycles += static_cast<double>(j.result.cycles);
        jobCycles.push_back(static_cast<double>(j.result.cycles));
    }
    const double wall = median(walls);
    r.notes["sweeps"] = std::to_string(walls.size());
    r.notes["cpu_s"] = std::to_string(median(cpus));
    r.notes["request_samples"] = std::to_string(jobMs.size());

    if (!o.trace) {
        r.set("setup_s", median(setup));
        r.set("wall_s", wall);
        r.set("sim_mcycles_per_s", cycles / wall / 1e6);
        r.set("peak_rss_mb", selfPeakRssMb());
        r.set("ok_frac", 1.0 - static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted));
        r.set("request_ms_p50", percentile(jobMs, 50));
        r.set("request_ms_p95", percentile(jobMs, 95));
        r.set("sim_latency_p95_mcycles", percentile(jobCycles, 95) / 1e6);
        return;
    }

    // --- Per-layer pass. ---
    double busyMs = 0;
    for (const runner::JobResult &j : first.jobs)
        busyMs += j.wallMs;
    r.set("runner.worker_busy_frac", busyMs / 1e3 / (workers * wall));
    r.set("runner.job_ms_p50", percentile(jobMs, 50));
    r.set("runner.job_ms_p90", percentile(jobMs, 90));
    // The Runner's jobs run on its own threads, out of reach of spans:
    // its self time is the sweep's wall time not covered by job time,
    // with job time spread evenly over the workers.
    r.set("runner.self_ms", 1e3 * wall - busyMs / workers);
    if (!o.tiny)
        r.set("paper_err_pct", paperErrorPct(first));
    LayerCounts counts;
    for (const runner::JobResult &j : first.jobs)
        counts.add(j.result);
    counts.emit(r);

    std::vector<SpanLog> logs;
    const Clock::time_point t0 = Clock::now();
    tracedPass(jobs, first, workers, logs, r);
    r.set("trace.overhead", since(t0) / wall);
    emitSelfTimes(logs, {"compiler", "sim"}, r);

    std::size_t obsJob = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (jobs[i].label == "6+16/Occamy")
            obsJob = i;
    obsOverhead(jobs[obsJob], r);

    const std::string path = o.workdir + "/spans_pair_sweep.json";
    r.check(writeSpans(logs, path), "cannot write " + path);
    r.notes["spans"] = path;
}

} // namespace perfbench
