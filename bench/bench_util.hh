/**
 * @file
 * Shared helpers for the figure/table reproduction benches: run a
 * workload pair across the four SIMD architectures, format tables, and
 * compute the geometric means the paper reports.
 */

#ifndef OCCAMY_BENCH_BENCH_UTIL_HH
#define OCCAMY_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

#ifndef OCCAMY_BUILD_TYPE
#define OCCAMY_BUILD_TYPE "unknown"
#endif

namespace occamy::bench
{

/** `"host_cores":N,"build_type":"T",` — the host fields every BENCH
 *  report carries, since wall-clock figures only compare within one
 *  host class and build type. */
inline std::string
hostFieldsJson()
{
    return "\"host_cores\":" +
           std::to_string(
               std::max(1u, std::thread::hardware_concurrency())) +
           ",\"build_type\":\"" OCCAMY_BUILD_TYPE "\",";
}

/** The four architectures, in the paper's presentation order. */
inline const std::vector<SharingPolicy> kPolicies = {
    SharingPolicy::Private,
    SharingPolicy::Temporal,
    SharingPolicy::StaticSpatial,
    SharingPolicy::Elastic,
};

/** Results of one pair on all four architectures (Private first). */
struct PairResults
{
    std::string label;
    std::vector<RunResult> byPolicy;   ///< Indexed like kPolicies.

    /** Core-@p c speedup of policy @p p over Private. */
    double
    speedup(std::size_t p, unsigned c) const
    {
        const Cycle base = byPolicy[0].cores[c].finish;
        const Cycle t = byPolicy[p].cores[c].finish;
        return t ? static_cast<double>(base) / static_cast<double>(t)
                 : 0.0;
    }
};

/**
 * Run @p pairs x @p policies through the parallel runner (OCCAMY_JOBS
 * or hardware-concurrency worker threads) and regroup the id-ordered
 * sweep per pair. Results are identical to the old serial loops for
 * any thread count; a failed job aborts with its diagnostic, matching
 * the old uncontained behaviour the figure benches rely on.
 */
inline std::vector<PairResults>
runPairs(const std::vector<workloads::Pair> &pairs,
         const std::vector<SharingPolicy> &policies = kPolicies,
         Cycle max_cycles = 40'000'000)
{
    const runner::SweepResult sweep = runner::Runner().run(
        runner::pairSweepJobs(pairs, policies, max_cycles));
    std::vector<PairResults> out;
    out.reserve(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        PairResults r;
        r.label = pairs[i].label;
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const runner::JobResult &job =
                sweep.jobs[i * policies.size() + p];
            if (!job.ok()) {
                std::fprintf(stderr, "job %s failed: %s\n",
                             job.label.c_str(), job.error.c_str());
                std::exit(1);
            }
            r.byPolicy.push_back(job.result);
        }
        out.push_back(std::move(r));
    }
    return out;
}

/** Run @p pair on all four 2-core architectures (runner-backed). */
inline PairResults
runPair(const workloads::Pair &pair, Cycle max_cycles = 40'000'000)
{
    return runPairs({pair}, kPolicies, max_cycles).front();
}

/** Geometric mean. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x > 0 ? x : 1e-9);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/** Print a rule line. */
inline void
rule(unsigned width = 78)
{
    for (unsigned i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Print a bench header in a consistent style. */
inline void
header(const std::string &title, const std::string &paper_ref)
{
    rule();
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    rule();
}

} // namespace occamy::bench

#endif // OCCAMY_BENCH_BENCH_UTIL_HH
