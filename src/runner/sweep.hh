/**
 * @file
 * Sweep construction and export on top of the runner: build job lists
 * from the workload suite's co-running pairs crossed with sharing
 * policies, and render a completed SweepResult as aggregated JSON or a
 * summary CSV (both deterministic: ordered by job id, no wall-clock
 * fields), reusing the per-run exporters in sim/trace.
 */

#ifndef OCCAMY_RUNNER_SWEEP_HH
#define OCCAMY_RUNNER_SWEEP_HH

#include <ostream>
#include <string>
#include <vector>

#include "runner/runner.hh"
#include "workloads/suite.hh"

namespace occamy::runner
{

/**
 * Resolve a pair selector: "all", "spec", "opencv", or a comma list of
 * 1-based indices into workloads::allPairs() and/or labels like
 * "6+16". Throws std::invalid_argument naming the first token that is
 * neither, or when the list selects nothing.
 */
std::vector<workloads::Pair> selectPairs(const std::string &spec);

/**
 * Build the job list for @p pairs x @p policies, pair-major (all
 * policies of pair 0, then pair 1, ...), with ids assigned 0..n-1 and
 * labels "<pair>/<policy>". Every job is a copy of @p tmpl with its
 * id, label, workloads and cfg set: the cfg is @p tmpl.cfg's topology
 * (clusters x cores per cluster) under the job's policy.
 */
std::vector<JobSpec> pairSweepJobs(
    const JobSpec &tmpl, const std::vector<workloads::Pair> &pairs,
    const std::vector<SharingPolicy> &policies);

/** The pair sweep on flat 2-core machines (a default JobSpec
 *  template) capped at @p max_cycles, with @p tweak (if non-null)
 *  applied to each job's config. */
std::vector<JobSpec> pairSweepJobs(
    const std::vector<workloads::Pair> &pairs,
    const std::vector<SharingPolicy> &policies,
    Cycle max_cycles = 40'000'000,
    const std::function<void(MachineConfig &)> &tweak = nullptr);

/**
 * Build the traffic-ablation job list: @p tmpl's traffic config
 * (process, tenants, seed, rate, SLO) crossed with @p policies x
 * @p schedulers, policy-major, ids 0..n-1 and labels
 * "<process>/<policy>/<scheduler>". Every job replays the identical
 * arrival stream (same seed), so the sweep isolates the scheduling
 * discipline and sharing policy. Jobs are copies of @p tmpl, machines
 * as in pairSweepJobs.
 */
std::vector<JobSpec> trafficSweepJobs(
    const JobSpec &tmpl, const std::vector<SharingPolicy> &policies,
    const std::vector<std::string> &schedulers);

/**
 * Render the whole sweep as one JSON object:
 *   {"jobs":[{"id":..,"label":..,"policy":..,"seed":..,"status":..,
 *             "error":..,"result":{..trace::toJson..}},...],
 *    "failed":N}
 * Deterministic for a given job list: independent of thread count and
 * completion order (jobs are id-ordered, wall-clock is excluded).
 */
std::string sweepToJson(const SweepResult &sweep);

/**
 * Write the one-row-per-job summary CSV:
 *   id,label,policy,status,cycles,simd_util,dram_bytes,core<i>_finish...
 * Column count is fixed by the widest job (idle columns left empty).
 */
void writeSweepCsv(std::ostream &os, const SweepResult &sweep);

} // namespace occamy::runner

#endif // OCCAMY_RUNNER_SWEEP_HH
