/**
 * @file
 * Reproduces Fig. 16 and extends it past the paper: 4-core
 * scalability. Four groups of SPEC workloads run on a 4-core machine
 * with 16 ExeBUs (64 lanes); per-core speedups of FTS/VLS/Occamy over
 * Private are reported, plus the geometric means. The paper observes
 * Occamy matching the others on the memory cores and winning on the
 * compute cores, and FTS shifting its bottleneck to the shared
 * register file.
 *
 * The clustered scale-out section then replicates the paper's cluster
 * to 16 cores (4x4) and 64 cores (8x8) — each cluster one
 * co-processor, the inter-cluster DRAM arbiter above them (DESIGN.md
 * §13) — and reports makespan, utilization, arbiter rebalances and
 * cross-cluster work migrations per topology. The deterministic
 * numbers are written to a JSON report gated in CI by
 * tools/check_bench_ticks.sh against the committed
 * BENCH_scalability.json snapshot.
 *
 * Usage: fig16_scalability [OUT.json]  (default BENCH_scalability.json)
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

using namespace occamy;
using namespace occamy::bench;

namespace
{

struct Topo
{
    const char *label;
    unsigned clusters;
    unsigned cores;     ///< Per cluster.
};

/** One clustered scenario. Full Fig. 16 workloads at 64 cores take
 *  minutes of wall clock (per-cluster DRAM shrinks to 1/C of the
 *  machine), so the scale-out section uses the same bounded
 *  memory/compute phases micro_ticks does: even clusters lean memory,
 *  odd clusters lean compute — the imbalance is what makes the
 *  demand-proportional arbiter and the migration path visible — and
 *  2*C batch jobs drain through the work-migration scheduler. */
RunResult
runClustered(const Topo &t, SharingPolicy p)
{
    System sys(MachineConfig::Builder(p)
                   .topology(t.clusters, t.cores)
                   .build());
    const unsigned total = t.clusters * t.cores;
    for (unsigned c = 0; c < total; ++c) {
        const unsigned cl = c / t.cores;
        const bool mem = cl % 2 == 0;
        sys.setWorkload(
            static_cast<CoreId>(c), mem ? "mem" : "comp",
            {workloads::makeNamedPhase(mem ? "rho_eos1" : "wsm51",
                                       mem ? 2048 : 8192)});
    }
    for (unsigned q = 0; q < 2 * t.clusters; ++q)
        sys.enqueueWorkload(
            "q" + std::to_string(q),
            {workloads::makeNamedPhase(q % 2 ? "wsm51" : "rho_eos1",
                                       4096)});
    return sys.run({.maxCycles = 80'000'000});
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_scalability.json";

    header("fig16_scalability: four workloads on a 4-core machine",
           "Fig. 16, Section 7.6");

    const auto groups = workloads::scalabilityGroups();
    std::vector<std::vector<double>> gm(4);   // per policy, all cores.

    for (const auto &group : groups) {
        std::printf("\ngroup %s:\n", group.label.c_str());
        std::printf("  %-8s %8s %8s %8s %8s | %9s\n", "arch", "Core0",
                    "Core1", "Core2", "Core3", "FTSstall%");

        RunResult base;
        for (std::size_t p = 0; p < kPolicies.size(); ++p) {
            System sys(
                MachineConfig::Builder(kPolicies[p]).cores(4).build());
            for (unsigned c = 0; c < 4; ++c)
                sys.setWorkload(static_cast<CoreId>(c),
                                group.workloads[c].name,
                                group.workloads[c].loops);
            RunResult r = sys.run({.maxCycles = 80'000'000});
            if (p == 0)
                base = r;
            std::printf("  %-8s", policyName(kPolicies[p]));
            double stall = 0.0;
            for (unsigned c = 0; c < 4; ++c) {
                const double s =
                    r.cores[c].finish
                        ? static_cast<double>(base.cores[c].finish) /
                              r.cores[c].finish
                        : 0.0;
                if (p > 0)
                    gm[p].push_back(s);
                std::printf(" %7.2fx", s);
                if (r.cores[c].finish)
                    stall += 100.0 * r.cores[c].renameRegStallCycles /
                             r.cores[c].finish / 4.0;
            }
            std::printf(" | %8.1f%%\n", stall);
            std::fflush(stdout);
        }
    }

    rule();
    std::printf("GM speedup over Private (all cores): FTS %.2fx, "
                "VLS %.2fx, Occamy %.2fx\n",
                geomean(gm[1]), geomean(gm[2]), geomean(gm[3]));
    std::printf("paper: Occamy scales best 2->4 cores; FTS's "
                "bottleneck shifts to the shared register file\n");

    // ------------------------------------------------------------------
    // Clustered scale-out: the paper's cluster replicated to 16 and 64
    // cores under the hierarchical lane manager.
    std::printf("\nclustered scale-out (each cluster = one "
                "co-processor, DESIGN.md \u00a713):\n");
    std::printf("  %-5s %-8s %5s %12s %6s %6s %7s %6s\n", "topo",
                "arch", "cores", "makespan", "util%", "rebal", "migr",
                "DRAM");

    const std::vector<Topo> topos = {
        {"1x4", 1, 4}, {"4x4", 4, 4}, {"8x8", 8, 8}};
    const std::vector<SharingPolicy> archs = {SharingPolicy::Private,
                                              SharingPolicy::Elastic};

    std::string json = "{\"bench\":\"fig16_scalability\"," +
                       hostFieldsJson() + "\"scenarios\":[";
    bool first = true;
    for (const Topo &t : topos) {
        for (SharingPolicy p : archs) {
            const RunResult r = runClustered(t, p);
            std::uint64_t migrations = 0;
            for (const auto &cl : r.clusters)
                migrations += cl.migratedIn;
            std::printf("  %-5s %-8s %5u %12llu %5.1f%% %6llu %7llu "
                        "%4.1fMB\n",
                        t.label, policyName(p), t.clusters * t.cores,
                        static_cast<unsigned long long>(r.cycles),
                        100.0 * r.simdUtil,
                        static_cast<unsigned long long>(
                            r.arbiterRebalances),
                        static_cast<unsigned long long>(migrations),
                        r.dramBytes / 1048576.0);
            std::fflush(stdout);

            char buf[512];
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"name\":\"%s_%s\",\"topology\":\"%s\","
                "\"policy\":\"%s\",\"cores\":%u,\"cycles\":%llu,"
                "\"dram_bytes\":%llu,\"vl_switches\":%llu,"
                "\"rebalances\":%llu,\"migrations\":%llu,"
                "\"simd_util\":%.4f}",
                first ? "" : ",", t.label, policyName(p), t.label,
                policyName(p), t.clusters * t.cores,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.dramBytes),
                static_cast<unsigned long long>(r.vlSwitches),
                static_cast<unsigned long long>(r.arbiterRebalances),
                static_cast<unsigned long long>(migrations),
                r.simdUtil);
            json += buf;
            first = false;
        }
    }
    json += "]}";
    std::printf("paper extension: migration stays a cold-path cost — "
                "home-cluster work is preferred, foreign entries are "
                "adopted only when the home queue is dry\n");

    if (std::FILE *f = std::fopen(out_path.c_str(), "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    return 0;
}
