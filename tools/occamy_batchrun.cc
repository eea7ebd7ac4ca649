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
 * All flags live in one cliopts::OptionSet table (src/common/cliopts);
 * the keys that fill the run's JobSpec come from runner::addRunKeys,
 * shared with occamy-sim and occamy-serve. --help is generated from
 * the table.
 *
 * Examples:
 *   occamy-batchrun --jobs 4 --pairs all --policy all --json-out sweep.json
 *   occamy-batchrun --pairs 1,2,3,4 --policy occamy --csv-out sweep.csv
 *   occamy-batchrun --pairs 6+16,1+13 --policy all --topology 4x4
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
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
    /** Every job is a copy of run.tmpl; the run keys write into it. */
    runner::RunKeys run;
    unsigned jobs = 0;                  // 0 = runner default
    std::string pairs = "spec";
    /** Empty = every registered policy, in registry order. */
    std::vector<SharingPolicy> policies;
    std::string jsonOut;
    std::string csvOut;
    bool progress = false;
    bool quiet = false;
    std::string traceOut;
    bool strictTimeout = false;
    unsigned retries = 0;
    std::string checkpointPrefix;

    // Multi-tenant traffic mode (replaces the pair sweep when
    // run.tmpl.traffic.process is set).
    double sloMs = 0.0;             ///< SLO budget in milliseconds.
    std::string scheduler = "fcfs"; ///< Dispatcher name or "all".
};

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
               "labels becomes '_'); all categories unless\n"
               "--trace-events says otherwise")
        .flag("strict-timeout", &opt.strictTimeout,
              "exit 3 (with a stderr note) if any job hit its\n"
              "--max-cycles cap")
        .value("wall-clock-limit", &opt.run.tmpl.wallClockLimitSec, "S",
               "kill any job after S seconds of host time (failed,\n"
               "partial result kept)")
        .value("retries", &opt.retries, "N",
               "retry transiently-failed jobs (OOM etc.) up to N\n"
               "times with exponential backoff")
        .value("checkpoint-out", &opt.checkpointPrefix, "PFX",
               "per-job periodic checkpoints, written to\n"
               "PFX<label>.ckpt every --checkpoint-every cycles ('/'\n"
               "in labels becomes '_')")
        .value("slo-ms", &opt.sloMs, "X",
               "per-job SLO budget in milliseconds of simulated time\n"
               "(default: no deadline)", true)
        .value("scheduler", &opt.scheduler, "S",
               "dispatch discipline (fcfs|sjf|edf|oi) or 'all'\n"
               "(default fcfs)");
    opt.run.traceEvents = "all";
    runner::addRunKeys(cli, opt.run,
                       runner::kTrafficKeys | runner::kRestoreKey);
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

/** A job label as a file-name part: every '/' becomes '_'. */
std::string
fileLabel(std::string label)
{
    std::replace(label.begin(), label.end(), '/', '_');
    return label;
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

    runner::JobSpec &tmpl = opt.run.tmpl;
    const traffic::TrafficConfig &tc = tmpl.traffic;
    if (!opt.traceOut.empty())
        tmpl.traceEvents = obs::parseEventMask(opt.run.traceEvents);

    std::vector<workloads::Pair> pairs;
    std::vector<runner::JobSpec> jobs;
    try {
        // An infeasible --topology surfaces from the Builder here.
        tmpl.cfg = opt.run.machine(SharingPolicy::Elastic);
        if (tc.enabled()) {
            // Traffic mode: policy x scheduler ablation over one
            // seeded arrival stream. Validate names up front so a typo
            // is a usage error, not N contained job failures.
            if (!traffic::processByName(tc.process)) {
                std::fprintf(stderr, "unknown traffic process: %s\n",
                             tc.process.c_str());
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
            if (tc.admission != "none" &&
                !traffic::admissionByName(tc.admission)) {
                std::fprintf(stderr, "unknown admission policy: %s\n",
                             tc.admission.c_str());
                return 2;
            }
            jobs = runner::trafficSweepJobs(tmpl, opt.policies, scheds);
            // The SLO budget is given in simulated milliseconds;
            // convert against each job's own clock (ms x GHz x 1e6
            // cycles).
            if (opt.sloMs > 0)
                for (auto &spec : jobs)
                    spec.traffic.sloCycles = static_cast<Cycle>(
                        opt.sloMs * spec.cfg.ghz * 1e6);
        } else {
            pairs = runner::selectPairs(opt.pairs);
            jobs = runner::pairSweepJobs(tmpl, pairs, opt.policies);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    runner::RunnerOptions ropt;
    ropt.numThreads = opt.jobs;
    ropt.transientRetries = opt.retries;
    if (opt.progress)
        ropt.onProgress = runner::stderrProgress();

    // A checkpoint names one run's state: tie it to one job.
    if (!tmpl.restoreFrom.empty() && jobs.size() != 1) {
        std::fprintf(stderr, "--restore needs a sweep of exactly "
                             "one job (one pair, one policy)\n");
        return 2;
    }
    if (!opt.checkpointPrefix.empty()) {
        // One checkpoint file per job, named by its label.
        for (auto &spec : jobs)
            spec.checkpointOut =
                opt.checkpointPrefix + fileLabel(spec.label) + ".ckpt";
    }

    const runner::SweepResult sweep =
        runner::Runner(ropt).run(std::move(jobs));

    if (!opt.traceOut.empty()) {
        for (const auto &j : sweep.jobs) {
            const std::string path =
                opt.traceOut + fileLabel(j.label) + ".trace.json";
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
        if (tc.enabled()) {
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
        if (!tc.enabled() && opt.policies.size() > 1 &&
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
        if (const std::size_t timed_out = sweep.timedOut()) {
            std::fprintf(stderr,
                         "%zu job(s) hit the %llu-cycle cap "
                         "(--strict-timeout)\n",
                         timed_out,
                         static_cast<unsigned long long>(tmpl.maxCycles));
            return 3;
        }
    }
    return sweep.allOk() ? 0 : 1;
}
