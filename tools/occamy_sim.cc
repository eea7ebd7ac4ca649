/**
 * @file
 * occamy-sim: command-line driver for the Occamy simulator.
 *
 * Runs a co-running pair (or an FCFS batch) of Table 3 workloads under
 * any registered SIMD sharing architecture and reports the paper's
 * metrics. Policies come from the name-keyed registry in src/policy/
 * (the four paper architectures plus extensions such as vls-wc), and
 * the machine shape from --topology CxK (C co-processor clusters of K
 * cores; --cores N remains the flat 1xN spelling).
 *
 * All flags live in one cliopts::OptionSet table (src/common/cliopts);
 * the keys that fill the run's JobSpec come from runner::addRunKeys,
 * shared with occamy-batchrun and occamy-serve. --help is generated
 * from the table.
 *
 * Examples:
 *   occamy-sim --pair 6+16 --policy all --jobs 4
 *   occamy-sim --policy occamy --batch WL1,WL16,WL8,WL17
 *   occamy-sim --pair 6+16 --topology 4x4 --policy occamy
 *   occamy-sim --list
 */

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
#include "sim/system.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

using namespace occamy;

namespace
{

struct Options
{
    /** Every job is a copy of run.tmpl; the run keys write into it. */
    runner::RunKeys run;
    std::vector<SharingPolicy> policies{SharingPolicy::Elastic};
    std::string pair = "6+16";
    bool opencv = false;
    std::vector<std::string> batch;
    unsigned jobs = 0;          // runner threads; 0 = runner default
    std::string jsonOut;
    bool timeline = false;
    bool stats = false;
    bool json = false;
    std::string csvPrefix;
    std::string traceOut;
    bool strictTimeout = false;
};

/** The whole flag surface, declared once. */
cliopts::OptionSet
optionTable(Options &opt)
{
    cliopts::OptionSet cli("occamy-sim",
                           "drive the Occamy elastic-SIMD simulator");
    cli.custom("policy", "P",
               "registered policy name or 'all' (default occamy);\n"
               "registered: private, fts, vls, occamy, vls-wc",
               [&opt](const std::string &v, std::string &err) {
                   if (v == "all") {
                       opt.policies.clear();
                       for (const policy::SharingModel *m :
                            policy::allModels())
                           opt.policies.push_back(m->id());
                       return true;
                   }
                   if (auto p = cliopts::parsePolicy(v)) {
                       opt.policies = {*p};
                       return true;
                   }
                   err = "unknown policy: " + v +
                         " (see --list-policies)";
                   return false;
               })
        .value("pair", &opt.pair, "A+B",
               "workload ids for core0+core1 (default 6+16)")
        .flag("opencv", &opt.opencv,
              "interpret --pair ids as OpenCV workloads")
        .custom("batch", "L",
                "comma-separated WLn/CVn list, FCFS scheduled",
                [&opt](const std::string &v, std::string &) {
                    opt.batch = cliopts::splitCommas(v);
                    return true;
                })
        .value("jobs", &opt.jobs, "N",
               "run --policy all fan-out on N threads", 1)
        .value("json-out", &opt.jsonOut, "F",
               "write the aggregated sweep JSON to F")
        .flag("timeline", &opt.timeline, "print busy-lane timelines")
        .flag("stats", &opt.stats,
              "dump memory/co-processor statistics")
        .flag("json", &opt.json, "print a JSON result summary")
        .value("csv", &opt.csvPrefix, "PREFIX",
               "write PREFIX_{timeline,phases,batch}.csv")
        .value("trace-out", &opt.traceOut, "F",
               "capture an event trace per run; .json gets\n"
               "Chrome/Perfetto format, .bin the compact binary\n"
               "format (multi-run adds _<policy>); all categories\n"
               "unless --trace-events says otherwise")
        .flag("strict-timeout", &opt.strictTimeout,
              "exit 3 (with a stderr note) if any run hit the\n"
              "--max-cycles cap")
        .value("checkpoint-out", &opt.run.tmpl.checkpointOut, "F",
               "checkpoint file; written every --checkpoint-every\n"
               "cycles (single-policy runs only; both flags required)");
    opt.run.traceEvents = "all";
    runner::addRunKeys(cli, opt.run, runner::kRestoreKey);
    cliopts::addListOptions(cli, cliopts::kListWorkloads |
                                     cliopts::kListPolicies);
    cli.alias("list", "list-workloads");
    return cli;
}

void
printRun(SharingPolicy policy, const RunResult &r, const Options &opt)
{
    std::printf("\n=== %s ===\n", policyName(policy));
    if (r.timedOut)
        std::printf("  (hit the %llu-cycle cap)\n",
                    static_cast<unsigned long long>(opt.run.tmpl.maxCycles));
    for (std::size_t c = 0; c < r.cores.size(); ++c) {
        const auto &core = r.cores[c];
        std::printf("core%zu %-10s finish=%llu cycles, %llu SIMD "
                    "compute insts, rename-stall %llu cycles\n",
                    c, core.workload.c_str(),
                    static_cast<unsigned long long>(core.finish),
                    static_cast<unsigned long long>(core.computeIssued),
                    static_cast<unsigned long long>(
                        core.renameRegStallCycles));
        for (const auto &ph : core.phases)
            std::printf("  phase %-14s [%8llu..%8llu] VL %2u->%2u "
                        "lanes, rate %.2f\n",
                        ph.name.c_str(),
                        static_cast<unsigned long long>(ph.start),
                        static_cast<unsigned long long>(ph.end),
                        ph.firstVl * kLanesPerBu,
                        ph.lastVl * kLanesPerBu, ph.issueRate);
    }
    for (const auto &b : r.batch)
        std::printf("batch %-10s core%u [%llu..%llu]\n", b.name.c_str(),
                    b.core, static_cast<unsigned long long>(b.dispatched),
                    static_cast<unsigned long long>(b.finished));
    std::printf("SIMD utilization %.1f%%, %llu VL switches, %llu lane "
                "plans, %.2f MB DRAM traffic\n", 100.0 * r.simdUtil,
                static_cast<unsigned long long>(r.vlSwitches),
                static_cast<unsigned long long>(r.plansMade),
                r.dramBytes / 1048576.0);
    for (const auto &cl : r.clusters)
        std::printf("cluster%u: %.2f MB DRAM, share %u B/cyc (avg "
                    "%.1f), migrated in %llu out %llu\n", cl.cluster,
                    cl.dramBytes / 1048576.0, cl.dramShareBpc,
                    cl.avgDramShareBpc,
                    static_cast<unsigned long long>(cl.migratedIn),
                    static_cast<unsigned long long>(cl.migratedOut));
    if (r.laneFaults || r.watchdogTrips)
        std::printf("faults: %llu ExeBU lane fault(s), %llu watchdog "
                    "trip(s) to the scalar fallback\n",
                    static_cast<unsigned long long>(r.laneFaults),
                    static_cast<unsigned long long>(r.watchdogTrips));
    if (opt.timeline) {
        for (std::size_t c = 0; c < r.cores.size(); ++c) {
            std::printf("core%zu busy lanes/kcycle:", c);
            const auto &tl = r.cores[c].busyLanesTimeline;
            for (std::size_t i = 0; i < tl.size(); i += 8)
                std::printf(" %.0f", tl[i]);
            std::printf("\n");
        }
    }
    if (opt.stats)
        std::printf("%s", r.statsText.c_str());
    if (opt.json)
        std::printf("%s\n", trace::toJson(r).c_str());
    if (!opt.csvPrefix.empty()) {
        auto dump = [&](const char *suffix, auto writer) {
            const std::string path =
                opt.csvPrefix + "_" + suffix + ".csv";
            std::ofstream ofs(path);
            writer(ofs, r);
            std::printf("wrote %s\n", path.c_str());
        };
        dump("timeline", trace::writeTimelinesCsv);
        dump("phases", trace::writePhasesCsv);
        dump("batch", trace::writeBatchCsv);
    }
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

    // Checkpoint files name one run's state, so tie them to one policy.
    runner::JobSpec &tmpl = opt.run.tmpl;
    if ((!tmpl.checkpointOut.empty() || !tmpl.restoreFrom.empty()) &&
        opt.policies.size() != 1) {
        std::fprintf(stderr, "--checkpoint-out/--restore need a single "
                             "--policy (not 'all')\n");
        return 2;
    }
    if (!opt.traceOut.empty())
        tmpl.traceEvents = obs::parseEventMask(opt.run.traceEvents);

    // Resolve workloads and the machine up front so catalog mistakes
    // and infeasible topologies stay usage errors, then fan one job
    // per policy out through the runner.
    std::vector<runner::JobSpec> jobs;
    try {
        const auto [w0, w1] = cliopts::lookupPair(opt.pair, opt.opencv);
        if (opt.batch.empty()) {
            tmpl.workloads.emplace_back(w0.name, w0.loops);
            if (opt.run.clusters * opt.run.cores > 1)
                tmpl.workloads.emplace_back(w1.name, w1.loops);
        }
        for (const auto &token : opt.batch) {
            const workloads::Workload w = cliopts::lookupWorkload(token);
            tmpl.batch.emplace_back(w.name, w.loops);
        }
        for (SharingPolicy policy : opt.policies) {
            runner::JobSpec &spec = jobs.emplace_back(tmpl);
            spec.id = jobs.size() - 1;
            spec.label = opt.batch.empty()
                             ? opt.pair + "/" + policyName(policy)
                             : "batch/" + std::string(policyName(policy));
            spec.cfg = opt.run.machine(policy);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "error: %s (use --list to see the catalog)\n",
                     e.what());
        return 2;
    }

    runner::RunnerOptions ropt;
    ropt.numThreads = opt.jobs;
    const runner::SweepResult sweep =
        runner::Runner(ropt).run(std::move(jobs));

    for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
        const runner::JobResult &j = sweep.jobs[i];
        if (!j.ok())
            std::fprintf(stderr, "job %s failed: %s\n", j.label.c_str(),
                         j.error.c_str());
        printRun(opt.policies[i], j.result, opt);
        // Keep the machine-readable --json stdout stream clean. Each
        // cluster engine ticks or skips every cycle on its own.
        const Cycle engine_cycles = opt.run.clusters * j.ff.cyclesSimulated;
        if (tmpl.fastForward && !opt.json && j.ff.cyclesTicked)
            std::printf("engine: ticked %llu of %llu engine-cycles "
                        "(%.1fx fast-forward, %llu spans)\n",
                        static_cast<unsigned long long>(j.ff.cyclesTicked),
                        static_cast<unsigned long long>(engine_cycles),
                        static_cast<double>(engine_cycles) /
                            static_cast<double>(j.ff.cyclesTicked),
                        static_cast<unsigned long long>(j.ff.spans));

        if (!opt.traceOut.empty()) {
            // One trace file per run; multi-policy sweeps get the
            // policy name spliced in before the extension.
            std::string path = opt.traceOut;
            if (sweep.jobs.size() > 1) {
                const auto dot = path.rfind('.');
                const std::string tag =
                    std::string("_") + policyName(opt.policies[i]);
                if (dot == std::string::npos)
                    path += tag;
                else
                    path.insert(dot, tag);
            }
            const bool binary =
                path.size() >= 4 &&
                path.compare(path.size() - 4, 4, ".bin") == 0;
            std::ofstream ofs(path, binary ? std::ios::binary
                                           : std::ios::out);
            if (binary)
                obs::writeBinaryTrace(ofs, j.trace);
            else
                obs::writeChromeTrace(ofs, j.trace, j.result.snapshots);
            std::printf("wrote %s (%zu events, %llu dropped)\n",
                        path.c_str(), j.trace.events.size(),
                        static_cast<unsigned long long>(j.trace.dropped));
        }
    }

    if (!opt.jsonOut.empty()) {
        std::ofstream ofs(opt.jsonOut);
        ofs << runner::sweepToJson(sweep) << "\n";
        std::printf("wrote %s\n", opt.jsonOut.c_str());
    }
    if (opt.strictTimeout) {
        if (const std::size_t timed_out = sweep.timedOut()) {
            std::fprintf(stderr,
                         "%zu run(s) hit the %llu-cycle cap "
                         "(--strict-timeout)\n",
                         timed_out,
                         static_cast<unsigned long long>(tmpl.maxCycles));
            return 3;
        }
    }
    return sweep.allOk() ? 0 : 1;
}
