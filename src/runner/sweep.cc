#include "runner/sweep.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/cliopts.hh"
#include "common/json.hh"
#include "sim/trace.hh"

namespace occamy::runner
{

MachineConfig
RunKeys::machine(SharingPolicy policy) const
{
    return MachineConfig::Builder(policy).topology(clusters, cores).build();
}

cliopts::OptionSet &
addRunKeys(cliopts::OptionSet &set, RunKeys &keys, unsigned which)
{
    JobSpec &t = keys.tmpl;
    set.custom("topology", "CxK",
               "C co-processor clusters of K cores each (default\n"
               "1x2); clustered machines add the inter-cluster\n"
               "bandwidth arbiter and work migration",
               [&keys](const std::string &v, std::string &err) {
                   return cliopts::parseTopology(v, keys.clusters,
                                                 keys.cores, err);
               })
        .custom("cores", "N",
                "number of scalar cores (default 2); shorthand for\n"
                "--topology 1xN",
                cliopts::flatCores(keys.clusters, keys.cores))
        .value("max-cycles", &t.maxCycles, "N",
               "simulation cap per run (default 40000000)")
        .value("trace-events", &keys.traceEvents, "L",
               "categories to trace: comma list of phase,pipeline,\n"
               "partition,reconfig,mem,sched,cluster or 'all'")
        .value("snapshot-every", &t.snapshotEvery, "N",
               "metric snapshot each N cycles, rendered as counter\n"
               "tracks in the Chrome trace")
        .onOff("fast-forward", &t.fastForward,
               "skip quiescent cycle spans (default on; results are\n"
               "identical either way)")
        .value("fault-plan", &t.faultPlan, "S",
               "deterministic fault plan, entries ';'-joined:\n"
               "lane@CYC:bu=N | vldeny@CYC+DUR:core=N |\n"
               "dram@CYC+DUR:lat=N,bw=N |\n"
               "cfgdelay@CYC+DUR:core=N,cycles=N")
        .value("fault-seed", &t.faultSeed, "N",
               "seeded random fault plan (ignored when --fault-plan\n"
               "is given); same seed, same plan")
        .value("watchdog-cycles", &t.watchdogCycles, "N",
               "escalate a <VL> retry spin older than N cycles to\n"
               "the scalar fallback (default off)")
        .value("checkpoint-every", &t.checkpointEvery, "N",
               "checkpoint period in cycles; each save overwrites\n"
               "the run's --checkpoint-out (both are needed)")
        .value("sim-threads", &t.simThreads, "N",
               "tick clustered machines with N worker threads between\n"
               "deterministic horizons; results are byte-identical\n"
               "for any N (default 1 = serial)");
    if (which & kRestoreKey)
        set.value("restore", &t.restoreFrom, "F",
                  "resume from checkpoint F instead of cycle 0; the\n"
                  "run (one policy, one job) must match the run that\n"
                  "wrote it in config, workloads and options");
    if (which & kTrafficKeys) {
        traffic::TrafficConfig &tc = t.traffic;
        set.value("traffic", &tc.process, "PROC",
                  "multi-tenant traffic: stochastic arrivals from\n"
                  "process PROC (poisson|bursty|diurnal|closed) in\n"
                  "place of the workload pairs")
            .value("tenants", &tc.tenants, "N",
                   "tenant streams (default 2)", 1)
            .value("arrival-seed", &tc.seed, "N",
                   "deterministic arrival-stream seed (default 1; same\n"
                   "seed = byte-identical stream)")
            .value("traffic-rate", &tc.meanGapCycles, "G",
                   "mean inter-arrival gap per tenant, cycles (default\n"
                   "200000)", true)
            .value("traffic-jobs", &tc.jobsPerTenant, "N",
                   "jobs generated per tenant (default 4)", 1)
            .value("admission", &tc.admission, "A",
                   "admission policy for traffic mode (none|static-cap|\n"
                   "token-bucket|slo-aware); 'none' (default) keeps every\n"
                   "export byte-identical to admission-less builds")
            .value("admission-cap", &tc.admissionCap, "N",
                   "per-tenant in-flight cap / token-bucket size\n"
                   "(default 4)", 1);
    }
    return set;
}

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
        std::size_t idx = 0;
        const char *const end = token.data() + token.size();
        const auto [stop, ec] = std::from_chars(token.data(), end, idx);
        if (ec == std::errc{} && stop == end) {
            if (idx < 1 || idx > all.size())
                throw std::invalid_argument(
                    "pair index " + token + " out of range 1.." +
                    std::to_string(all.size()));
            out.push_back(all[idx - 1]);
            continue;
        }
        const auto it =
            std::find_if(all.begin(), all.end(),
                         [&](const auto &p) { return p.label == token; });
        if (it == all.end())
            throw std::invalid_argument("unknown pair label: " + token);
        out.push_back(*it);
    }
    if (out.empty())
        throw std::invalid_argument("no pairs match: " + spec);
    return out;
}

namespace
{

/** @p tmpl's machine shape (clusters x cores per cluster) under
 *  @p policy. */
MachineConfig
jobConfig(const JobSpec &tmpl, SharingPolicy policy)
{
    return MachineConfig::Builder(policy)
        .topology(tmpl.cfg.numClusters, tmpl.cfg.coresPerCluster())
        .build();
}

} // namespace

std::vector<JobSpec>
pairSweepJobs(const JobSpec &tmpl,
              const std::vector<workloads::Pair> &pairs,
              const std::vector<SharingPolicy> &policies)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(pairs.size() * policies.size());
    for (const auto &pair : pairs) {
        for (SharingPolicy p : policies) {
            JobSpec &spec = jobs.emplace_back(tmpl);
            spec.id = jobs.size() - 1;
            spec.label = pair.label + "/" + policyName(p);
            spec.cfg = jobConfig(tmpl, p);
            spec.workloads = {{pair.core0.name, pair.core0.loops},
                              {pair.core1.name, pair.core1.loops}};
        }
    }
    return jobs;
}

std::vector<JobSpec>
pairSweepJobs(const std::vector<workloads::Pair> &pairs,
              const std::vector<SharingPolicy> &policies,
              Cycle max_cycles,
              const std::function<void(MachineConfig &)> &tweak)
{
    JobSpec tmpl;
    tmpl.maxCycles = max_cycles;
    std::vector<JobSpec> jobs = pairSweepJobs(tmpl, pairs, policies);
    if (tweak)
        for (JobSpec &spec : jobs)
            tweak(spec.cfg);
    return jobs;
}

std::vector<JobSpec>
trafficSweepJobs(const JobSpec &tmpl,
                 const std::vector<SharingPolicy> &policies,
                 const std::vector<std::string> &schedulers)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(policies.size() * schedulers.size());
    for (SharingPolicy p : policies) {
        for (const std::string &sched : schedulers) {
            JobSpec &spec = jobs.emplace_back(tmpl);
            spec.id = jobs.size() - 1;
            spec.label = tmpl.traffic.process + "/" + policyName(p) + "/" +
                         sched;
            spec.cfg = jobConfig(tmpl, p);
            spec.traffic.scheduler = sched;
        }
    }
    return jobs;
}

namespace
{

/** Deterministic fixed-notation double for JSON/CSV export. */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/** A cycle stamp for JSON; kCycleNever (stage never reached) -> -1. */
std::string
cyc(Cycle c)
{
    return c == kCycleNever ? std::string("-1") : std::to_string(c);
}

/** The per-job "traffic" JSON object (aggregates, per-tenant rows, and
 *  one lifecycle record per arrival). */
std::string
trafficToJson(const JobResult &j)
{
    const traffic::TrafficMetrics &m = j.trafficMetrics;
    std::ostringstream os;
    os << "{\"arrivals\":" << m.arrivals
       << ",\"completed\":" << m.completed
       << ",\"slo_violations\":" << m.sloViolations
       << ",\"queueing_delay_mean\":" << num(m.queueingDelayMean)
       << ",\"latency_p50\":" << num(m.latencyP50)
       << ",\"latency_p95\":" << num(m.latencyP95)
       << ",\"latency_p99\":" << num(m.latencyP99)
       << ",\"fairness_jain\":" << num(m.fairnessJain);
    // Admission aggregates appear only for jobs that actually ran with
    // an admission policy, keeping admission-off sweeps byte-identical.
    if (j.hasAdmission)
        os << ",\"shed\":" << m.shed << ",\"deferrals\":" << m.deferrals
           << ",\"goodput\":" << m.goodput;
    os << ",\"tenants\":[";
    for (std::size_t t = 0; t < m.tenants.size(); ++t) {
        const traffic::TenantMetrics &tm = m.tenants[t];
        os << (t ? "," : "") << "{\"tenant\":" << tm.tenant
           << ",\"arrivals\":" << tm.arrivals
           << ",\"completed\":" << tm.completed
           << ",\"slo_violations\":" << tm.sloViolations;
        if (j.hasAdmission)
            os << ",\"shed\":" << tm.shed;
        os << ",\"throughput\":" << num(tm.throughput)
           << ",\"mean_latency\":" << num(tm.meanLatency) << "}";
    }
    os << "],\"jobs\":[";
    for (std::size_t q = 0; q < j.result.trafficJobs.size(); ++q) {
        const traffic::JobRecord &r = j.result.trafficJobs[q];
        os << (q ? "," : "") << "{\"tenant\":" << r.tenant
           << ",\"arrive\":" << cyc(r.arrive)
           << ",\"admit\":" << cyc(r.admit)
           << ",\"finish\":" << cyc(r.finish)
           << ",\"slo_violated\":" << (r.violatedSlo() ? "true" : "false");
        if (j.hasAdmission)
            os << ",\"shed\":" << (r.shed ? "true" : "false")
               << ",\"defers\":" << r.defers;
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace

std::string
sweepToJson(const SweepResult &sweep)
{
    std::ostringstream os;
    os << "{\"jobs\":[";
    for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
        const JobResult &j = sweep.jobs[i];
        os << (i ? "," : "") << "{\"id\":" << j.id
           << ",\"label\":\"" << jsonEscape(j.label) << "\""
           << ",\"policy\":\"" << policyName(j.policy) << "\""
           << ",\"status\":\"" << jobStatusName(j.status) << "\""
           << ",\"error\":\"" << jsonEscape(j.error) << "\""
           << ",\"timed_out\":" << (j.result.timedOut ? "true" : "false")
           << ",\"watchdog_trips\":" << j.result.watchdogTrips
           << ",\"lane_faults\":" << j.result.laneFaults
           << ",\"ff\":{\"simulated\":" << j.ff.cyclesSimulated
           << ",\"ticked\":" << j.ff.cyclesTicked
           << ",\"spans\":" << j.ff.spans << "}";
        // Retry accounting is exported only when a retry budget was
        // configured: attempt counts depend on host conditions, so
        // default (no-retry) sweeps must not grow a new field.
        if (j.retryBudget > 0)
            os << ",\"retries\":" << j.retriesUsed;
        if (j.hasTraffic)
            os << ",\"traffic\":" << trafficToJson(j);
        os << ",\"result\":" << trace::toJson(j.result) << "}";
    }
    os << "],\"failed\":" << sweep.failed()
       << ",\"timed_out\":" << sweep.timedOut() << "}";
    return os.str();
}

void
writeSweepCsv(std::ostream &os, const SweepResult &sweep)
{
    std::size_t max_cores = 0;
    std::size_t max_tenants = 0;
    std::size_t max_clusters = 0;
    bool any_traffic = false;
    bool any_admission = false;
    bool any_retries = false;
    for (const auto &j : sweep.jobs) {
        max_cores = std::max(max_cores, j.result.cores.size());
        max_clusters = std::max(max_clusters, j.result.clusters.size());
        if (j.hasTraffic) {
            any_traffic = true;
            max_tenants = std::max(
                max_tenants, static_cast<std::size_t>(j.trafficTenants));
        }
        any_admission = any_admission || j.hasAdmission;
        any_retries = any_retries || j.retryBudget > 0;
    }

    os << "id,label,policy,status,timed_out,cycles,simd_util,dram_bytes,"
          "cycles_ticked,watchdog_trips,lane_faults";
    // Like the traffic block below, retry columns exist only in sweeps
    // that configured a retry budget.
    if (any_retries)
        os << ",retries";
    // Traffic columns only appear in sweeps that ran traffic, so
    // pre-existing consumers of traffic-free CSVs see the exact format
    // they always did.
    if (any_traffic) {
        os << ",traffic_arrivals,traffic_completed,slo_violations,"
              "queueing_delay_mean,latency_p50,latency_p95,latency_p99,"
              "fairness_jain";
        if (any_admission)
            os << ",shed,deferrals,goodput";
        for (std::size_t t = 0; t < max_tenants; ++t)
            os << ",tenant" << t << "_throughput";
    }
    // Cluster columns likewise appear only when some job ran a
    // clustered topology.
    if (max_clusters > 0) {
        os << ",clusters,arbiter_rebalances";
        for (std::size_t k = 0; k < max_clusters; ++k)
            os << ",cluster" << k << "_dram_share_bpc,cluster" << k
               << "_migrated_in";
    }
    for (std::size_t c = 0; c < max_cores; ++c)
        os << ",core" << c << "_workload,core" << c << "_finish";
    os << "\n";

    os << std::setprecision(10);
    for (const auto &j : sweep.jobs) {
        os << j.id << "," << j.label << "," << policyName(j.policy)
           << "," << jobStatusName(j.status) << ","
           << (j.result.timedOut ? 1 : 0) << "," << j.result.cycles
           << "," << j.result.simdUtil << "," << j.result.dramBytes
           << "," << j.ff.cyclesTicked << "," << j.result.watchdogTrips
           << "," << j.result.laneFaults;
        if (any_retries)
            os << "," << j.retriesUsed;
        if (any_traffic) {
            if (j.hasTraffic) {
                const traffic::TrafficMetrics &m = j.trafficMetrics;
                os << "," << m.arrivals << "," << m.completed << ","
                   << m.sloViolations << "," << num(m.queueingDelayMean)
                   << "," << num(m.latencyP50) << "," << num(m.latencyP95)
                   << "," << num(m.latencyP99) << ","
                   << num(m.fairnessJain);
                if (any_admission) {
                    // Admission-less jobs in a mixed sweep leave the
                    // shed/defer cells empty rather than printing 0, so
                    // "no policy" and "policy shed nothing" stay
                    // distinguishable.
                    if (j.hasAdmission)
                        os << "," << m.shed << "," << m.deferrals << ","
                           << m.goodput;
                    else
                        os << ",,,";
                }
                for (std::size_t t = 0; t < max_tenants; ++t) {
                    os << ",";
                    if (t < m.tenants.size())
                        os << num(m.tenants[t].throughput);
                }
            } else {
                os << ",,,,,,,,";
                if (any_admission)
                    os << ",,,";
                for (std::size_t t = 0; t < max_tenants; ++t)
                    os << ",";
            }
        }
        if (max_clusters > 0) {
            os << "," << j.result.clusters.size() << ","
               << j.result.arbiterRebalances;
            for (std::size_t k = 0; k < max_clusters; ++k) {
                if (k < j.result.clusters.size())
                    os << "," << j.result.clusters[k].dramShareBpc
                       << "," << j.result.clusters[k].migratedIn;
                else
                    os << ",,";
            }
        }
        for (std::size_t c = 0; c < max_cores; ++c) {
            if (c < j.result.cores.size())
                os << "," << j.result.cores[c].workload << ","
                   << j.result.cores[c].finish;
            else
                os << ",,";
        }
        os << "\n";
    }
}

} // namespace occamy::runner
