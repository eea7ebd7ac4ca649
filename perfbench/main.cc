/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload pair_sweep|cluster_traffic|serve_session
 *             --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--workdir DIR] [--commit SHA]
 *
 * --trace 0 measures the end-to-end metrics with all tracing off;
 * --trace 1 is the separate per-layer pass (spans around every call the
 * benchmark makes into a layer). Human-readable lines come first; the
 * last line of stdout is one JSON object
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * The exit status is 0 only when every correctness check passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

/** Every metric perfbench reports, with its unit. BENCHMARK.json lists
 *  the same names; the smoke test checks that they agree. */
constexpr MetricDef kMetrics[] = {
    // End to end (measured with tracing off).
    {"setup_s", "s", true},
    {"wall_s", "s", true},
    {"sim_mcycles_per_s", "Mcycles/s", true},
    {"peak_rss_mb", "MB", true},
    {"ok_frac", "frac", true},
    {"request_ms_p50", "ms", true},
    {"request_ms_p95", "ms", true},
    {"sim_latency_p95_mcycles", "Mcycles", true},
    // Per layer (traced pass). 0 = the layer does no work on the
    // workload, or the metric is not taken there (see README.md).
    {"paper_err_pct", "%", false},
    {"slo_goodput_frac", "frac", false},
    {"trace.overhead", "x", false},
    {"runner.worker_busy_frac", "frac", false},
    {"runner.job_ms_p50", "ms", false},
    {"runner.job_ms_p90", "ms", false},
    {"runner.export_ms", "ms", false},
    {"runner.self_ms", "ms", false},
    {"compiler.compile_ms", "ms", false},
    {"compiler.programs", "count", false},
    {"compiler.self_ms", "ms", false},
    {"sim.boot_ms_p50", "ms", false},
    {"sim.advance_s", "s", false},
    {"sim.finalize_ms", "ms", false},
    {"sim.ns_per_cycle", "ns", false},
    {"sim.ns_per_core_cycle", "ns", false},
    {"sim.ns_per_ticked_cycle", "ns", false},
    {"sim.ff_leverage", "x", false},
    {"sim.thread_speedup", "x", false},
    {"sim.self_ms", "ms", false},
    {"coproc.simd_insts", "count", false},
    {"coproc.em_insts", "count", false},
    {"coproc.rename_stall_cycles", "cycles", false},
    {"core.reconfig_wait_cycles", "cycles", false},
    {"core.monitor_insts", "count", false},
    {"mem.dram_bytes", "bytes", false},
    {"mem.vec_cache_hit_rate", "frac", false},
    {"mem.l2_hit_rate", "frac", false},
    {"lanemgr.plans", "count", false},
    {"lanemgr.vl_switches", "count", false},
    {"lanemgr.rebalances", "count", false},
    {"lanemgr.migrations", "count", false},
    {"traffic.generate_ms", "ms", false},
    {"traffic.arrivals", "count", false},
    {"traffic.deferrals", "count", false},
    {"traffic.shed", "count", false},
    {"traffic.overload_enters", "count", false},
    {"traffic.admit_ratio", "frac", false},
    {"traffic.queueing_delay_mean_kcycles", "kcycles", false},
    {"traffic.self_ms", "ms", false},
    {"ckpt.save_ms", "ms", false},
    {"ckpt.restore_ms", "ms", false},
    {"ckpt.bytes", "bytes", false},
    {"ckpt.save_mb_per_s", "MB/s", false},
    {"ckpt.self_ms", "ms", false},
    {"serve.run_hit_ms_p50", "ms", false},
    {"serve.run_miss_ms_p50", "ms", false},
    {"serve.step_ms_p50", "ms", false},
    {"serve.checkpoint_ms_p50", "ms", false},
    {"serve.restore_ms_p50", "ms", false},
    {"serve.load_ms_p50", "ms", false},
    {"serve.pool_hit_frac", "frac", false},
    {"serve.self_ms", "ms", false},
    {"obs.events", "count", false},
    {"obs.trace_overhead", "x", false},
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload pair_sweep|cluster_traffic|"
                 "serve_session --seed N --seconds S --trace 0|1\n"
                 "                 [--size full|tiny] [--workdir DIR] "
                 "[--commit SHA]\n");
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (!(o.seconds > 0))
                return false;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (a == "--size") {
            if (v != "full" && v != "tiny")
                return false;
            o.tiny = v == "tiny";
        } else if (a == "--workdir") {
            o.workdir = v;
        } else if (a == "--commit") {
            o.commit = v;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return o.workload == "pair_sweep" || o.workload == "cluster_traffic" ||
           o.workload == "serve_session";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    o.workdir = ".bench_build/perfbench-work";
    if (!parseArgs(argc, argv, o)) {
        usage();
        return 2;
    }
    o.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::error_code ec;
    std::filesystem::create_directories(o.workdir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     o.workdir.c_str(), ec.message().c_str());
        return 1;
    }

    Result r;
    try {
        if (o.workload == "pair_sweep")
            runPairSweep(o, r);
        else if (o.workload == "cluster_traffic")
            runClusterTraffic(o, r);
        else
            runServeSession(o, r);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     o.workload.c_str(), e.what());
        return 1;
    }

    for (const auto &[name, v] : r.metrics) {
        bool known = false;
        for (const MetricDef &m : kMetrics)
            known = known || name == m.name;
        if (!known) {
            std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                         name.c_str());
            return 1;
        }
    }
    if (r.attempted == 0)
        r.check(false, "no operation was attempted");
    for (const MetricDef &m : kMetrics) {
        if (m.endToEnd == o.trace)
            continue;
        const auto it = r.metrics.find(m.name);
        if (it == r.metrics.end() ? m.endToEnd : !std::isfinite(it->second))
            r.check(false, std::string("metric not measured: ") + m.name);
        else if (it != r.metrics.end() && m.endToEnd && it->second == 0)
            r.check(false, std::string("end-to-end metric is 0: ") + m.name);
    }
    for (auto &[name, v] : r.metrics)
        if (!std::isfinite(v))
            v = 0;  // Keeps the result line valid JSON; checked above.
    const bool correct = r.failedChecks.empty() && r.failed == 0;

    std::printf("perfbench %s seed=%llu trace=%d%s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                o.tiny ? " size=tiny" : "");
    for (const MetricDef &m : kMetrics) {
        if (m.endToEnd == o.trace)
            continue;
        const auto it = r.metrics.find(m.name);
        std::printf("  %-36s %16.6g %s\n", m.name,
                    it == r.metrics.end() ? 0.0 : it->second, m.unit);
    }
    for (const std::string &c : r.failedChecks)
        std::printf("CHECK FAILED: %s\n", c.c_str());
    std::printf("sim_digest %s %s\n", o.workload.c_str(), r.digest.c_str());

    // Host record: numbers from different host classes must not be
    // compared silently.
    std::printf("{\"record\":{\"workload\":\"%s\",\"seed\":%llu,"
                "\"trace\":%d,\"sim_digest\":\"%s\",\"nproc\":%u,"
                "\"build_type\":\"%s\",\"compiler\":\"%s\","
                "\"commit\":\"%s\"",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? 1 : 0, r.digest.c_str(), o.nproc,
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, o.commit.c_str());
    for (const auto &[k, v] : r.notes)
        std::printf(",\"%s\":\"%s\"", k.c_str(), v.c_str());
    std::printf("}}\n");

    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    for (const MetricDef &m : kMetrics) {
        if (m.endToEnd == o.trace)
            continue;
        const auto it = r.metrics.find(m.name);
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    first ? "" : ",", m.name,
                    it == r.metrics.end() ? 0.0 : it->second, m.unit);
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}
