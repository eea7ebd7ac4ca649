#include "traffic/traffic.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "kir/analysis.hh"
#include "traffic/arrival.hh"
#include "workloads/suite.hh"

namespace occamy::traffic
{

namespace
{

/** Stable per-tenant stream seed: the generator's determinism contract
 *  requires tenant t's stream to be a pure function of (seed, t). */
std::uint64_t
mixSeed(std::uint64_t seed, unsigned tenant)
{
    std::uint64_t z = seed ^ (0x9E3779B97F4A7C15ULL *
                              (static_cast<std::uint64_t>(tenant) + 1));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** The full 34-workload catalog (WL1..WL22, CV1..CV12), or the
 *  cfg.workloadSet subset resolved against it. */
std::vector<workloads::Workload>
resolveCatalog(const TrafficConfig &cfg)
{
    std::vector<workloads::Workload> all;
    all.reserve(34);
    for (unsigned n = 1; n <= 22; ++n)
        all.push_back(workloads::specWorkload(n));
    for (unsigned n = 1; n <= 12; ++n)
        all.push_back(workloads::opencvWorkload(n));
    if (cfg.workloadSet.empty())
        return all;

    std::vector<workloads::Workload> picked;
    for (const std::string &want : cfg.workloadSet) {
        bool found = false;
        for (const auto &w : all) {
            if (w.name == want) {
                picked.push_back(w);
                found = true;
                break;
            }
        }
        if (!found)
            throw std::invalid_argument("unknown workload in traffic "
                                        "workload set: " +
                                        want);
    }
    return picked;
}

} // namespace

double
estimateCost(const std::vector<kir::Loop> &loops)
{
    double cost = 0.0;
    for (const kir::Loop &l : loops) {
        const kir::LoopSummary s = kir::analyze(l);
        cost += static_cast<double>(l.trip) *
                static_cast<double>(s.computeInsts + s.memInsts);
    }
    return cost;
}

std::string
TrafficConfig::describe() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "process=%s sched=%s tenants=%u seed=%llu jobs=%llu "
                  "gap=%.1f slo=%llu burst=%.2f period=%llu",
                  process.c_str(), scheduler.c_str(), tenants,
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(jobsPerTenant),
                  meanGapCycles,
                  static_cast<unsigned long long>(sloCycles), burstiness,
                  static_cast<unsigned long long>(diurnalPeriod));
    std::string out = buf;
    out += " set=[";
    for (std::size_t i = 0; i < workloadSet.size(); ++i) {
        if (i)
            out += ',';
        out += workloadSet[i];
    }
    out += ']';
    // Appended only when admission control is on, so pre-admission
    // descriptions (and the fingerprints derived from them) are
    // byte-identical for the default "none".
    if (admissionEnabled()) {
        out += " admission=";
        out += admission;
        out += " cap=";
        out += std::to_string(admissionCap);
    }
    return out;
}

std::vector<Arrival>
generate(const TrafficConfig &cfg)
{
    if (!cfg.enabled())
        throw std::invalid_argument("traffic process not set");
    const ArrivalProcess *proc = processByName(cfg.process);
    if (!proc)
        throw std::invalid_argument("unknown traffic process: " +
                                    cfg.process);
    if (cfg.tenants == 0)
        throw std::invalid_argument("traffic needs at least one tenant");
    if (cfg.jobsPerTenant == 0)
        throw std::invalid_argument("traffic needs at least one job "
                                    "per tenant");
    if (!std::isfinite(cfg.meanGapCycles) || cfg.meanGapCycles <= 0.0)
        throw std::invalid_argument("traffic mean gap must be a positive, "
                                    "finite number");

    const std::vector<workloads::Workload> catalog = resolveCatalog(cfg);
    if (catalog.empty())
        throw std::invalid_argument("traffic workload set is empty");

    // Each tenant synthesizes its stream independently; the merge is a
    // stable sort by (arriveAt, tenant), so the stream order is a pure
    // function of the config.
    struct TenantJob
    {
        Arrival a;
        std::uint64_t seqInTenant = 0;
    };
    std::vector<TenantJob> jobs;
    jobs.reserve(static_cast<std::size_t>(cfg.tenants) *
                 cfg.jobsPerTenant);
    for (unsigned t = 0; t < cfg.tenants; ++t) {
        StreamState st(mixSeed(cfg.seed, t));
        for (std::uint64_t j = 0; j < cfg.jobsPerTenant; ++j) {
            const Cycle gap = proc->nextGap(st, cfg);
            st.clock = std::min(st.clock + gap, kArrivalCap);

            TenantJob tj;
            tj.seqInTenant = j;
            tj.a.tenant = t;
            tj.a.arriveAt = st.clock;
            const workloads::Workload &w =
                catalog[st.rng.range(0, catalog.size() - 1)];
            tj.a.workload = w.name;
            tj.a.loops = w.loops;
            tj.a.estCost = estimateCost(w.loops);
            tj.a.sloBudget =
                cfg.sloCycles > 0 ? cfg.sloCycles : kCycleNever;
            if (proc->closedLoop())
                tj.a.thinkGap = gap;
            jobs.push_back(std::move(tj));
        }
    }

    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const TenantJob &x, const TenantJob &y) {
                         if (x.a.arriveAt != y.a.arriveAt)
                             return x.a.arriveAt < y.a.arriveAt;
                         return x.a.tenant < y.a.tenant;
                     });

    // Closed-loop chaining: after the merge, point each job past the
    // first in its tenant stream at its predecessor's global queue
    // index. Sequence numbers survive the stable sort, so "previous in
    // stream" is well-defined.
    std::vector<Arrival> out;
    out.reserve(jobs.size());
    if (proc->closedLoop()) {
        std::vector<std::size_t> last(cfg.tenants, kNoJob);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            Arrival a = std::move(jobs[i].a);
            if (jobs[i].seqInTenant > 0)
                a.dependsOn = last[a.tenant];
            last[a.tenant] = i;
            out.push_back(std::move(a));
        }
    } else {
        for (TenantJob &tj : jobs)
            out.push_back(std::move(tj.a));
    }
    return out;
}

} // namespace occamy::traffic
