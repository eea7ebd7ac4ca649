/**
 * @file
 * occamy-batchrun: drive arbitrary pair x policy sweeps through the
 * parallel experiment runner without recompiling.
 *
 * Jobs fan out across worker threads with per-job fault containment;
 * output (stdout table, --json-out, --csv-out) is ordered by job id and
 * therefore byte-identical for any --jobs value. Live progress goes to
 * stderr with --progress. Exits non-zero if any job failed, so CI can
 * gate on it. --topology CxK sweeps clustered machines (per-cluster
 * arbiter stats land in the JSON/CSV exports).
 *
 * All flags live in one cliopts::OptionSet table (src/common/cliopts)
 * shared with occamy-sim; --help is generated from it.
 *
 * Examples:
 *   occamy-batchrun --jobs 4 --pairs all --policy all --json-out sweep.json
 *   occamy-batchrun --pairs 1,2,3,4 --policy occamy --csv-out sweep.csv
 *   occamy-batchrun --pairs 6+16,1+13 --policy all --topology 4x4
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/cliopts.hh"
#include "common/cliopts_lists.hh"
#include "obs/events.hh"
#include "obs/export.hh"
#include "policy/sharing_model.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "traffic/admission.hh"
#include "traffic/arrival.hh"
#include "traffic/scheduler.hh"
#include "workloads/suite.hh"

using namespace occamy;

namespace
{

struct Options
{
    unsigned jobs = 0;                  // 0 = runner default
    std::string pairs = "spec";
    /** Empty = every registered policy, in registry order. */
    std::vector<SharingPolicy> policies;
    unsigned clusters = 1;
    unsigned cores = 2;                 // per cluster
    Cycle maxCycles = 40'000'000;
    std::string jsonOut;
    std::string csvOut;
    bool progress = false;
    bool quiet = false;
    std::string traceOut;
    std::string traceEvents = "all";
    Cycle snapshotEvery = 0;
    bool fastForward = true;
    bool strictTimeout = false;
    std::string faultPlan;
    std::uint64_t faultSeed = 0;
    Cycle watchdogCycles = 0;
    double wallClockLimitSec = 0.0;
    unsigned retries = 0;
    std::string checkpointPrefix;
    Cycle checkpointEvery = 0;
    std::string restoreFrom;
    unsigned simThreads = 1;

    // Multi-tenant traffic mode (replaces the pair sweep when set).
    std::string traffic;            ///< Arrival-process name; "" = off.
    unsigned tenants = 2;
    std::uint64_t arrivalSeed = 1;
    double sloMs = 0.0;             ///< SLO budget in milliseconds.
    double trafficRate = 200'000.0; ///< Mean inter-arrival gap, cycles.
    std::uint64_t trafficJobs = 4;  ///< Jobs per tenant stream.
    std::string scheduler = "fcfs"; ///< Dispatcher name or "all".
    std::string admission = "none"; ///< Admission policy; "none" = off.
    unsigned admissionCap = 4;      ///< Per-tenant cap / bucket size.
};

/** Resolve --pairs into catalog entries; empty return = bad selector. */
std::vector<workloads::Pair>
selectPairs(const std::string &spec)
{
    const auto all = workloads::allPairs();
    if (spec == "all")
        return all;
    if (spec == "spec")
        return workloads::specPairs();
    if (spec == "opencv")
        return workloads::opencvPairs();

    std::vector<workloads::Pair> out;
    for (const std::string &token : cliopts::splitCommas(spec)) {
        if (token.find('+') != std::string::npos) {
            bool found = false;
            for (const auto &p : all)
                if (p.label == token) {
                    out.push_back(p);
                    found = true;
                    break;
                }
            if (!found) {
                std::fprintf(stderr, "unknown pair label: %s\n",
                             token.c_str());
                return {};
            }
        } else {
            const long idx = std::atol(token.c_str());
            if (idx < 1 || idx > static_cast<long>(all.size())) {
                std::fprintf(stderr,
                             "pair index %s out of range 1..%zu\n",
                             token.c_str(), all.size());
                return {};
            }
            out.push_back(all[static_cast<std::size_t>(idx - 1)]);
        }
    }
    return out;
}

/** The whole flag surface, declared once. */
cliopts::OptionSet
optionTable(Options &opt)
{
    cliopts::OptionSet cli("occamy-batchrun",
                           "parallel pair x policy sweeps");
    cli.value("jobs", &opt.jobs, "N",
              "worker threads (default: OCCAMY_JOBS env or hardware\n"
              "concurrency)", 1)
        .value("pairs", &opt.pairs, "SPEC",
               "all|spec|opencv, or a comma list of 1-based indices\n"
               "into the 25-pair catalog and/or labels like 6+16\n"
               "(default: spec)")
        .custom("policy", "P",
                "registered policy names (private|fts|vls|occamy|\n"
                "vls-wc), comma list allowed, or 'all' (default: all)",
                [&opt](const std::string &v, std::string &err) {
                    opt.policies.clear();
                    if (v == "all")
                        return true;    // = every registered policy.
                    for (const std::string &tok : cliopts::splitCommas(v)) {
                        auto p = cliopts::parsePolicy(tok);
                        if (!p) {
                            err = "unknown policy: " + tok +
                                  " (see --list-policies)";
                            return false;
                        }
                        opt.policies.push_back(*p);
                    }
                    return true;
                })
        .custom("topology", "CxK",
                "sweep C co-processor clusters of K cores each\n"
                "(default 1x2); clustered machines add per-cluster\n"
                "arbiter columns to the JSON/CSV exports",
                [&opt](const std::string &v, std::string &err) {
                    return cliopts::parseTopology(v, opt.clusters,
                                                  opt.cores, err);
                })
        .custom("cores", "N",
                "flat core count per job (default 2); shorthand for\n"
                "--topology 1xN",
                cliopts::flatCores(opt.clusters, opt.cores))
        .value("max-cycles", &opt.maxCycles, "N",
               "per-job simulation cap (default 4e7)")
        .value("json-out", &opt.jsonOut, "FILE",
               "write the aggregated sweep JSON")
        .value("csv-out", &opt.csvOut, "FILE",
               "write the per-job summary CSV")
        .flag("progress", &opt.progress,
              "live done/running/failed/ETA on stderr")
        .flag("quiet", &opt.quiet, "suppress the stdout summary table")
        .value("trace-out", &opt.traceOut, "PFX",
               "capture a per-job event trace, written to\n"
               "PFX<label>.trace.json (Chrome/Perfetto format; '/' in\n"
               "labels becomes '_')")
        .value("trace-events", &opt.traceEvents, "L",
               "categories: comma list of phase,pipeline,partition,\n"
               "reconfig,mem,sched,cluster or 'all'")
        .value("snapshot-every", &opt.snapshotEvery, "N",
               "metric snapshot each N cycles")
        .onOff("fast-forward", &opt.fastForward,
               "skip quiescent cycle spans (default on; results are\n"
               "identical either way)")
        .flag("strict-timeout", &opt.strictTimeout,
              "exit 3 (with a stderr note) if any job hit its\n"
              "--max-cycles cap")
        .value("fault-plan", &opt.faultPlan, "S",
               "deterministic fault plan applied to every job (see\n"
               "occamy-sim --help for the grammar)")
        .value("fault-seed", &opt.faultSeed, "N",
               "seeded random fault plan per job (ignored when\n"
               "--fault-plan is given)")
        .value("watchdog-cycles", &opt.watchdogCycles, "N",
               "per-job livelock watchdog threshold (escalates stuck\n"
               "<VL> spins; default off)")
        .value("wall-clock-limit", &opt.wallClockLimitSec, "S",
               "kill any job after S seconds of host time (failed,\n"
               "partial result kept)")
        .value("retries", &opt.retries, "N",
               "retry transiently-failed jobs (OOM etc.) up to N\n"
               "times with exponential backoff")
        .value("checkpoint-out", &opt.checkpointPrefix, "PFX",
               "per-job periodic checkpoints, written to\n"
               "PFX<label>.ckpt every --checkpoint-every cycles ('/'\n"
               "in labels becomes '_')")
        .value("checkpoint-every", &opt.checkpointEvery, "N",
               "checkpoint period in cycles (required with\n"
               "--checkpoint-out)")
        .value("restore", &opt.restoreFrom, "F",
               "resume from checkpoint F; the sweep must select\n"
               "exactly one pair and one policy")
        .value("sim-threads", &opt.simThreads, "N",
               "worker threads per job's own cycle loop (clustered\n"
               "machines only; byte-identical for any N; composes\n"
               "with --jobs)")
        .value("traffic", &opt.traffic, "PROC",
               "multi-tenant traffic mode: stochastic arrivals from\n"
               "process PROC (poisson|bursty|diurnal|closed) swept\n"
               "over policy x scheduler instead of the pair sweep")
        .value("tenants", &opt.tenants, "N", "tenant streams (default 2)",
               1)
        .value("arrival-seed", &opt.arrivalSeed, "N",
               "deterministic arrival-stream seed (default 1; same\n"
               "seed = byte-identical stream)")
        .value("slo-ms", &opt.sloMs, "X",
               "per-job SLO budget in milliseconds of simulated time\n"
               "(default: no deadline)", true)
        .value("traffic-rate", &opt.trafficRate, "G",
               "mean inter-arrival gap per tenant, cycles (default\n"
               "200000)", true)
        .value("traffic-jobs", &opt.trafficJobs, "N",
               "jobs generated per tenant (default 4)", 1)
        .value("scheduler", &opt.scheduler, "S",
               "dispatch discipline (fcfs|sjf|edf|oi) or 'all'\n"
               "(default fcfs)")
        .value("admission", &opt.admission, "A",
               "admission policy for traffic mode (none|static-cap|\n"
               "token-bucket|slo-aware); 'none' (default) keeps every\n"
               "export byte-identical to admission-less builds")
        .value("admission-cap", &opt.admissionCap, "N",
               "per-tenant in-flight cap / token-bucket size\n"
               "(default 4)", 1);
    cliopts::addListOptions(
        cli, cliopts::kListTraffic | cliopts::kListSchedulers |
                 cliopts::kListAdmission | cliopts::kListPairs |
                 cliopts::kListWorkloads | cliopts::kListPolicies);
    cli.alias("list", "list-pairs");
    cli.footer("exit status: 0 all jobs ok, 1 some job failed, 2 usage "
               "error,\n             3 a job timed out under "
               "--strict-timeout");
    return cli;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const cliopts::OptionSet cli = optionTable(opt);
    const cliopts::ParseResult pr = cli.parse(argc, argv);
    if (pr.status == cliopts::Status::Exit)
        return pr.exitCode;
    if (pr.status == cliopts::Status::Error) {
        std::fprintf(stderr, "%s\n", pr.error.c_str());
        cli.printHelp(stderr);
        return 2;
    }
    if (opt.policies.empty())
        for (const policy::SharingModel *m : policy::allModels())
            opt.policies.push_back(m->id());

    // Per-job machine override; null on the default 1x2 shape so the
    // sweep presets stay byte-for-byte on MachineConfig::forPolicy.
    std::function<void(MachineConfig &)> tweak;
    if (opt.clusters != 1 || opt.cores != 2)
        tweak = [&opt](MachineConfig &cfg) {
            cfg = opt.clusters == 1
                      ? MachineConfig::forPolicy(cfg.policy, opt.cores)
                      : MachineConfig::Builder(cfg.policy)
                            .topology(opt.clusters, opt.cores)
                            .build();
        };

    std::vector<workloads::Pair> pairs;
    std::vector<runner::JobSpec> jobs;
    try {
        if (!opt.traffic.empty()) {
            // Traffic mode: policy x scheduler ablation over one
            // seeded arrival stream. Validate names up front so a typo
            // is a usage error, not N contained job failures.
            if (!traffic::processByName(opt.traffic)) {
                std::fprintf(stderr, "unknown traffic process: %s\n",
                             opt.traffic.c_str());
                return 2;
            }
            std::vector<std::string> scheds;
            if (opt.scheduler == "all") {
                for (const traffic::Dispatcher *d :
                     traffic::allDispatchers())
                    scheds.push_back(d->key());
            } else {
                if (!traffic::dispatcherByName(opt.scheduler)) {
                    std::fprintf(stderr, "unknown scheduler: %s\n",
                                 opt.scheduler.c_str());
                    return 2;
                }
                scheds = {opt.scheduler};
            }
            if (opt.admission != "none" &&
                !traffic::admissionByName(opt.admission)) {
                std::fprintf(stderr, "unknown admission policy: %s\n",
                             opt.admission.c_str());
                return 2;
            }
            traffic::TrafficConfig tc;
            tc.process = opt.traffic;
            tc.tenants = opt.tenants;
            tc.seed = opt.arrivalSeed;
            tc.jobsPerTenant = opt.trafficJobs;
            tc.meanGapCycles = opt.trafficRate;
            tc.admission = opt.admission;
            tc.admissionCap = opt.admissionCap;
            jobs = runner::trafficSweepJobs(tc, opt.policies, scheds,
                                            opt.maxCycles, tweak);
            // The SLO budget is given in simulated milliseconds;
            // convert against each job's own clock (ms x GHz x 1e6
            // cycles).
            if (opt.sloMs > 0)
                for (auto &spec : jobs)
                    spec.traffic.sloCycles = static_cast<Cycle>(
                        opt.sloMs * spec.cfg.ghz * 1e6);
        } else {
            pairs = selectPairs(opt.pairs);
            if (pairs.empty()) {
                cli.printHelp(stderr);
                return 2;
            }
            jobs = runner::pairSweepJobs(pairs, opt.policies,
                                         opt.maxCycles, tweak);
        }
    } catch (const std::exception &e) {
        // An infeasible --topology surfaces from the Builder here.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    runner::RunnerOptions ropt;
    ropt.numThreads = opt.jobs;
    ropt.transientRetries = opt.retries;
    if (opt.progress)
        ropt.onProgress = runner::stderrProgress();

    if (!opt.restoreFrom.empty()) {
        // A checkpoint names one run's state: tie it to one job.
        if (jobs.size() != 1) {
            std::fprintf(stderr, "--restore needs a sweep of exactly "
                                 "one job (one pair, one policy)\n");
            return 2;
        }
        jobs[0].restoreFrom = opt.restoreFrom;
    }
    for (auto &spec : jobs) {
        if (!opt.traceOut.empty())
            spec.traceEvents = obs::parseEventMask(opt.traceEvents);
        spec.snapshotEvery = opt.snapshotEvery;
        spec.fastForward = opt.fastForward;
        spec.faultPlan = opt.faultPlan;
        spec.faultSeed = opt.faultSeed;
        spec.watchdogCycles = opt.watchdogCycles;
        spec.wallClockLimitSec = opt.wallClockLimitSec;
        spec.simThreads = opt.simThreads;
        if (!opt.checkpointPrefix.empty() && opt.checkpointEvery) {
            // One checkpoint file per job, named by its label.
            std::string label = spec.label;
            for (char &c : label)
                if (c == '/')
                    c = '_';
            spec.checkpointOut = opt.checkpointPrefix + label + ".ckpt";
            spec.checkpointEvery = opt.checkpointEvery;
        }
    }

    const runner::SweepResult sweep =
        runner::Runner(ropt).run(std::move(jobs));

    if (!opt.traceOut.empty()) {
        for (const auto &j : sweep.jobs) {
            std::string label = j.label;
            for (char &c : label)
                if (c == '/')
                    c = '_';
            const std::string path =
                opt.traceOut + label + ".trace.json";
            std::ofstream ofs(path);
            obs::writeChromeTrace(ofs, j.trace, j.result.snapshots);
            if (!opt.quiet)
                std::printf("wrote %s (%zu events)\n", path.c_str(),
                            j.trace.events.size());
        }
    }

    if (!opt.quiet) {
        std::printf("%3s  %-14s %-8s %-6s %12s %12s %12s %7s\n", "id",
                    "pair/policy", "policy", "status", "cycles",
                    "c0_finish", "c1_finish", "util");
        for (const auto &j : sweep.jobs) {
            std::printf("%3zu  %-14s %-8s %-6s", j.id, j.label.c_str(),
                        policyName(j.policy),
                        runner::jobStatusName(j.status));
            if (j.ok()) {
                std::printf(
                    " %12llu %12llu %12llu %6.1f%%",
                    static_cast<unsigned long long>(j.result.cycles),
                    static_cast<unsigned long long>(
                        j.result.cores.size() > 0 ? j.result.cores[0].finish
                                                  : 0),
                    static_cast<unsigned long long>(
                        j.result.cores.size() > 1 ? j.result.cores[1].finish
                                                  : 0),
                    100.0 * j.result.simdUtil);
            } else {
                std::printf("  %s", j.error.c_str());
            }
            std::printf("\n");
        }

        // Per-job SLO digest in traffic mode (full detail goes to the
        // JSON/CSV exports).
        if (!opt.traffic.empty()) {
            for (const auto &j : sweep.jobs) {
                if (!j.hasTraffic)
                    continue;
                const traffic::TrafficMetrics &m = j.trafficMetrics;
                std::printf("%3zu  %-22s done %llu/%llu p50 %.0f "
                            "p99 %.0f jain %.3f slo_viol %llu",
                            j.id, j.label.c_str(),
                            static_cast<unsigned long long>(m.completed),
                            static_cast<unsigned long long>(m.arrivals),
                            m.latencyP50, m.latencyP99, m.fairnessJain,
                            static_cast<unsigned long long>(
                                m.sloViolations));
                if (j.hasAdmission)
                    std::printf(
                        " shed %llu defer %llu goodput %llu",
                        static_cast<unsigned long long>(m.shed),
                        static_cast<unsigned long long>(m.deferrals),
                        static_cast<unsigned long long>(m.goodput));
                std::printf("\n");
            }
        }

        // GM per-core speedups over Private when the sweep has them.
        if (opt.traffic.empty() && opt.policies.size() > 1 &&
            opt.policies[0] == SharingPolicy::Private && sweep.allOk()) {
            const std::size_t np = opt.policies.size();
            for (std::size_t p = 1; p < np; ++p) {
                double gm[2] = {0.0, 0.0};
                for (std::size_t i = 0; i < pairs.size(); ++i) {
                    const auto &base = sweep.jobs[i * np].result.cores;
                    const auto &cur =
                        sweep.jobs[i * np + p].result.cores;
                    for (unsigned c = 0; c < 2; ++c)
                        gm[c] += std::log(
                            static_cast<double>(base[c].finish) /
                            static_cast<double>(cur[c].finish));
                }
                std::printf("GM speedup %-8s core0 %.2fx core1 %.2fx\n",
                            policyName(opt.policies[p]),
                            std::exp(gm[0] / pairs.size()),
                            std::exp(gm[1] / pairs.size()));
            }
        }
        if (sweep.failed())
            std::printf("%zu/%zu jobs failed\n", sweep.failed(),
                        sweep.jobs.size());
    }

    if (!opt.jsonOut.empty()) {
        std::ofstream ofs(opt.jsonOut);
        ofs << runner::sweepToJson(sweep) << "\n";
        if (!opt.quiet)
            std::printf("wrote %s\n", opt.jsonOut.c_str());
    }
    if (!opt.csvOut.empty()) {
        std::ofstream ofs(opt.csvOut);
        runner::writeSweepCsv(ofs, sweep);
        if (!opt.quiet)
            std::printf("wrote %s\n", opt.csvOut.c_str());
    }

    // Failed-job summary on stderr, even under --quiet: the nonzero
    // exit status alone tells CI *that* the sweep failed, this line
    // says *which* jobs and why.
    if (sweep.failed()) {
        std::fprintf(stderr, "batchrun: %zu/%zu job(s) failed\n",
                     sweep.failed(), sweep.jobs.size());
        for (const auto &j : sweep.jobs)
            if (!j.ok())
                std::fprintf(stderr, "  job %zu %s: %s\n", j.id,
                             j.label.c_str(), j.error.c_str());
    }

    if (opt.strictTimeout) {
        std::size_t timed_out = 0;
        for (const auto &j : sweep.jobs)
            if (j.result.timedOut)
                ++timed_out;
        if (timed_out) {
            std::fprintf(stderr,
                         "%zu job(s) hit the %llu-cycle cap "
                         "(--strict-timeout)\n",
                         timed_out,
                         static_cast<unsigned long long>(opt.maxCycles));
            return 3;
        }
    }
    return sweep.allOk() ? 0 : 1;
}
