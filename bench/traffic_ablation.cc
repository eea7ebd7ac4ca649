/**
 * @file
 * Multi-tenant traffic ablation: the full scheduler x sharing-policy x
 * fault-plan cross, replaying one seeded bursty arrival stream (4
 * tenants) under every combination. Because every job sees the exact
 * same arrivals, differences in p99 latency, SLO violations and Jain
 * fairness isolate the dispatch discipline, the SIMD sharing model and
 * the injected DRAM spike. The whole cross is one parallel runner
 * sweep; pass an argument to also dump the sweep as
 * BENCH_traffic.json / BENCH_traffic.csv next to the cwd.
 *
 * The admission section then crosses admission policy x scheduler x
 * load level on one seeded poisson stream and writes the fully
 * deterministic shed/defer/goodput numbers to a JSON report
 * (--admission-out FILE, default BENCH_admission.json) gated in CI by
 * tools/check_bench_ticks.sh against the committed snapshot: the
 * headline evidence that admission control converts SLO violations
 * into explicit sheds under overload.
 */

#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_util.hh"
#include "runner/sweep.hh"
#include "traffic/admission.hh"
#include "traffic/arrival.hh"
#include "traffic/scheduler.hh"

using namespace occamy;
using namespace occamy::bench;

namespace
{

/** The two fault regimes of the ablation: fault-free, and a mid-run
 *  DRAM spike (+150 cy latency, 1/4 bandwidth for 300k cycles) that
 *  lands while the bursty stream is still arriving. */
const struct
{
    const char *label;
    const char *plan;
} kFaultRegimes[] = {
    {"none", ""},
    {"dram-spike", "dram@400000+300000:lat=150,bw=4"},
};

/** Sharing-policy ladder: private baseline, both static flavors, and
 *  the elastic model under test. */
const SharingPolicy kSharingLadder[] = {
    SharingPolicy::Private,
    SharingPolicy::StaticSpatial,
    SharingPolicy::StaticSpatialWC,
    SharingPolicy::Elastic,
};

} // namespace

int
main(int argc, char **argv)
{
    header("traffic_ablation: scheduler x sharing x faults on one "
           "seeded bursty stream",
           "multi-tenant extension of Section 5 (not a paper figure)");

    traffic::TrafficConfig base;
    base.process = "bursty";
    base.tenants = 4;
    base.seed = 7;
    base.jobsPerTenant = 4;
    base.meanGapCycles = 120'000.0;
    base.sloCycles = 600'000;

    std::vector<std::string> scheds;
    for (const traffic::Dispatcher *d : traffic::allDispatchers())
        scheds.push_back(d->key());

    // One flat job list: fault-regime-major, then the policy x
    // scheduler cross from trafficSweepJobs (policy-major).
    std::vector<runner::JobSpec> jobs;
    runner::JobSpec tmpl;
    tmpl.traffic = base;
    for (const auto &regime : kFaultRegimes) {
        std::vector<SharingPolicy> pols(std::begin(kSharingLadder),
                                        std::end(kSharingLadder));
        tmpl.faultPlan = regime.plan;
        auto block = runner::trafficSweepJobs(tmpl, pols, scheds);
        for (auto &spec : block) {
            spec.id = jobs.size();
            spec.label += std::string("/") + regime.label;
            jobs.push_back(std::move(spec));
        }
    }

    std::printf("\nstream: %s\n\n", base.describe().c_str());
    const runner::SweepResult sweep = runner::Runner().run(std::move(jobs));

    std::printf("%-32s %9s %6s %10s %10s %8s %9s\n", "scheduler/policy/fault",
                "makespan", "done", "p50", "p99", "jain", "slo_viol");
    for (const auto &j : sweep.jobs) {
        if (!j.ok()) {
            std::fprintf(stderr, "job %s failed: %s\n", j.label.c_str(),
                         j.error.c_str());
            return 1;
        }
        const traffic::TrafficMetrics &m = j.trafficMetrics;
        std::printf("%-32s %9llu %3llu/%-2llu %10.0f %10.0f %8.3f %9llu\n",
                    j.label.c_str(),
                    static_cast<unsigned long long>(j.result.cycles),
                    static_cast<unsigned long long>(m.completed),
                    static_cast<unsigned long long>(m.arrivals),
                    m.latencyP50, m.latencyP99, m.fairnessJain,
                    static_cast<unsigned long long>(m.sloViolations));
    }

    // Digest: per scheduler, the worst p99 over policies, split by
    // fault regime — the headline "which discipline degrades least".
    std::printf("\nworst-case p99 per scheduler (over policies):\n");
    std::printf("  %-8s %12s %12s\n", "sched", "fault-free", "dram-spike");
    for (const std::string &s : scheds) {
        double worst[2] = {0.0, 0.0};
        for (const auto &j : sweep.jobs) {
            const bool spiked =
                j.label.find("dram-spike") != std::string::npos;
            if (j.label.find("/" + s + "/") != std::string::npos) {
                double &w = worst[spiked ? 1 : 0];
                if (j.trafficMetrics.latencyP99 > w)
                    w = j.trafficMetrics.latencyP99;
            }
        }
        std::printf("  %-8s %12.0f %12.0f\n", s.c_str(), worst[0],
                    worst[1]);
    }

    if (argc > 1 && std::strcmp(argv[1], "--no-export") != 0 &&
        std::strcmp(argv[1], "--admission-out") != 0) {
        std::ofstream js("BENCH_traffic.json");
        js << runner::sweepToJson(sweep) << "\n";
        std::ofstream cs("BENCH_traffic.csv");
        runner::writeSweepCsv(cs, sweep);
        std::printf("\nwrote BENCH_traffic.json, BENCH_traffic.csv\n");
    }

    // ------------------------------------------------------------------
    // Admission x scheduler x load cross: one seeded poisson stream at
    // a sustainable and an oversubscribed rate, under every admission
    // policy. Every field in the report is a pure function of the
    // seeded config, so CI gates them exactly.
    std::string adm_out = "BENCH_admission.json";
    for (int a = 1; a + 1 < argc; ++a)
        if (std::strcmp(argv[a], "--admission-out") == 0)
            adm_out = argv[a + 1];

    const struct
    {
        const char *label;
        double gapCycles;
    } kLoads[] = {
        {"light", 200'000.0},   // Arrivals roughly match service.
        {"storm", 25'000.0},    // Arrival rate >> service rate.
    };
    const char *kAdmissions[] = {"none", "static-cap", "token-bucket",
                                 "slo-aware"};
    const char *kScheds[] = {"fcfs", "edf"};

    std::vector<runner::JobSpec> adm_jobs;
    for (const auto &load : kLoads) {
        for (const char *sched : kScheds) {
            for (const char *adm : kAdmissions) {
                runner::JobSpec spec;
                spec.id = adm_jobs.size();
                spec.label = std::string(adm) + "/" + sched + "/" +
                             load.label;
                spec.cfg =
                    MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
                spec.traffic.process = "poisson";
                spec.traffic.tenants = 4;
                spec.traffic.seed = 11;
                spec.traffic.jobsPerTenant = 4;
                spec.traffic.meanGapCycles = load.gapCycles;
                spec.traffic.sloCycles = 600'000;
                spec.traffic.scheduler = sched;
                spec.traffic.admission = adm;
                spec.traffic.admissionCap = 2;
                adm_jobs.push_back(std::move(spec));
            }
        }
    }
    const runner::SweepResult adm_sweep =
        runner::Runner().run(std::move(adm_jobs));

    std::printf("\nadmission x scheduler x load (poisson, 4 tenants, "
                "SLO 600k cycles):\n");
    std::printf("%-28s %9s %6s %5s %6s %8s %9s\n",
                "admission/scheduler/load", "makespan", "done", "shed",
                "defer", "goodput", "slo_viol");
    std::string json = "{\"bench\":\"traffic_admission\"," +
                       hostFieldsJson() + "\"scenarios\":[";
    bool adm_first = true;
    for (const auto &j : adm_sweep.jobs) {
        if (!j.ok()) {
            std::fprintf(stderr, "job %s failed: %s\n", j.label.c_str(),
                         j.error.c_str());
            return 1;
        }
        const traffic::TrafficMetrics &m = j.trafficMetrics;
        std::printf("%-28s %9llu %3llu/%-2llu %5llu %6llu %8llu %9llu\n",
                    j.label.c_str(),
                    static_cast<unsigned long long>(j.result.cycles),
                    static_cast<unsigned long long>(m.completed),
                    static_cast<unsigned long long>(m.arrivals),
                    static_cast<unsigned long long>(m.shed),
                    static_cast<unsigned long long>(m.deferrals),
                    static_cast<unsigned long long>(m.goodput),
                    static_cast<unsigned long long>(m.sloViolations));

        std::string name = j.label;
        for (char &c : name)
            if (c == '/')
                c = '_';
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"name\":\"%s\",\"cycles\":%llu,\"arrivals\":%llu,"
            "\"completed\":%llu,\"shed\":%llu,\"deferrals\":%llu,"
            "\"goodput\":%llu,\"slo_violations\":%llu}",
            adm_first ? "" : ",", name.c_str(),
            static_cast<unsigned long long>(j.result.cycles),
            static_cast<unsigned long long>(m.arrivals),
            static_cast<unsigned long long>(m.completed),
            static_cast<unsigned long long>(m.shed),
            static_cast<unsigned long long>(m.deferrals),
            static_cast<unsigned long long>(m.goodput),
            static_cast<unsigned long long>(m.sloViolations));
        json += buf;
        adm_first = false;
    }
    json += "]}";

    std::ofstream js(adm_out);
    js << json << "\n";
    std::printf("wrote %s\n", adm_out.c_str());
    return 0;
}
