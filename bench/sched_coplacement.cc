/**
 * @file
 * Extension bench (the paper's Section 5 future-work suggestion):
 * letting lane partitioning and OS scheduling work together.
 *
 * A batch of four memory-intensive and four compute-intensive
 * workloads is drained by a 2-core Occamy machine under two dispatch
 * disciplines. FCFS, fed an adversarial queue ordering (all memory
 * first), repeatedly co-runs same-intensity workloads; the OI-aware
 * scheduler consults the roofline with the co-runner's current <OI>
 * and picks complementary workloads, improving makespan and
 * utilization.
 */

#include <cstdio>
#include <string_view>

#include "bench_util.hh"
#include "workloads/suite.hh"

using namespace occamy;
using namespace occamy::bench;

namespace
{

RunResult
drainBatch(const traffic::Dispatcher *sched, SharingPolicy policy)
{
    System sys(MachineConfig::Builder(policy).cores(2).build());
    sys.setDispatcher(sched);
    sys.setWorkload(0, "idle0", {});
    sys.setWorkload(1, "idle1", {});
    // Adversarial order: all memory workloads first, then all compute.
    for (unsigned id : {19u, 8u, 20u, 22u})
        sys.enqueueWorkload("WL" + std::to_string(id),
                            workloads::specWorkload(id).loops);
    for (unsigned id : {16u, 17u, 13u, 18u})
        sys.enqueueWorkload("WL" + std::to_string(id),
                            workloads::specWorkload(id).loops);
    return sys.run({.maxCycles = 80'000'000});
}

} // namespace

int
main()
{
    header("sched_coplacement: co-scheduling + lane partitioning",
           "extension of Section 5 (\"it may be more profitable to let "
           "both work together\")");

    std::printf("\nbatch: 4 memory + 4 compute workloads, adversarial "
                "FCFS order (memory first)\n\n");
    std::printf("%-10s %-10s %12s %10s\n", "dispatch", "arch",
                "makespan", "util");

    Cycle fcfs_makespan = 0;
    for (SharingPolicy arch :
         {SharingPolicy::StaticSpatial, SharingPolicy::Elastic}) {
        for (const char *key : {"fcfs", "oi"}) {
            const bool oi = key == std::string_view("oi");
            const RunResult r =
                drainBatch(traffic::dispatcherByName(key), arch);
            const char *sched_name = oi ? "OI-aware" : "FCFS";
            std::printf("%-10s %-10s %12llu %9.1f%%\n", sched_name,
                        policyName(arch),
                        static_cast<unsigned long long>(r.cycles),
                        100.0 * r.simdUtil);
            if (arch == SharingPolicy::Elastic && !oi)
                fcfs_makespan = r.cycles;
            if (arch == SharingPolicy::Elastic && oi) {
                std::printf("\nOI-aware makespan gain on Occamy: "
                            "%.2fx\n",
                            static_cast<double>(fcfs_makespan) /
                                r.cycles);
                std::printf("\ndispatch trace (OI-aware, Occamy):\n");
                for (const auto &b : r.batch)
                    std::printf("  %-6s -> core%u [%8llu .. %8llu]\n",
                                b.name.c_str(), b.core,
                                static_cast<unsigned long long>(
                                    b.dispatched),
                                static_cast<unsigned long long>(
                                    b.finished));
            }
        }
    }
    return 0;
}
