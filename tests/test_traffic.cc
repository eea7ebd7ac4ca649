/**
 * @file
 * Statistical and unit tests for the multi-tenant traffic engine
 * (src/traffic): goodness-of-fit of the stock arrival processes
 * (chi-squared and Kolmogorov-Smirnov against the exponential for
 * Poisson, coefficient-of-variation separation for bursty, half-period
 * asymmetry for diurnal), the determinism contract (identical configs
 * yield byte-identical streams), closed-loop chaining, the SLO metric
 * primitives, dispatcher selection on synthetic queues, and an
 * end-to-end drained run through the simulator.
 *
 * The statistical assertions run on fixed seeds, so they are exact
 * regression tests in practice; the thresholds are still chosen at the
 * ~0.001 significance level so that any reseeding keeps them stable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runner/runner.hh"
#include "sim/system.hh"
#include "sim/trace.hh"
#include "traffic/admission.hh"
#include "traffic/arrival.hh"
#include "traffic/metrics.hh"
#include "traffic/scheduler.hh"
#include "traffic/session.hh"
#include "traffic/traffic.hh"

namespace occamy
{
namespace
{

/** One single-tenant stream's inter-arrival gaps. */
std::vector<double>
gapsOf(const std::string &process, std::uint64_t seed, std::uint64_t n,
       double mean)
{
    traffic::TrafficConfig cfg;
    cfg.process = process;
    cfg.tenants = 1;
    cfg.seed = seed;
    cfg.jobsPerTenant = n;
    cfg.meanGapCycles = mean;
    const std::vector<traffic::Arrival> stream = traffic::generate(cfg);
    std::vector<double> gaps;
    gaps.reserve(stream.size());
    Cycle prev = 0;
    for (const traffic::Arrival &a : stream) {
        gaps.push_back(static_cast<double>(a.arriveAt - prev));
        prev = a.arriveAt;
    }
    return gaps;
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Coefficient of variation (stddev / mean). */
double
cvOf(const std::vector<double> &v)
{
    const double m = meanOf(v);
    double ss = 0.0;
    for (double x : v)
        ss += (x - m) * (x - m);
    return std::sqrt(ss / static_cast<double>(v.size())) / m;
}

// ------------------------------------------- arrival-process GOF

TEST(TrafficGof, PoissonMeanMatchesConfiguredRate)
{
    const double mean = 1000.0;
    const auto gaps = gapsOf("poisson", 42, 4000, mean);
    ASSERT_EQ(gaps.size(), 4000u);
    // n = 4000 puts the standard error at mean/sqrt(n) ~ 1.6%; a 5%
    // band is ~3 sigma.
    EXPECT_NEAR(meanOf(gaps), mean, 0.05 * mean);
}

TEST(TrafficGof, PoissonGapsPassChiSquaredExponentialFit)
{
    const double mean = 1000.0;
    const auto gaps = gapsOf("poisson", 42, 4000, mean);
    const std::size_t n = gaps.size();

    // 10 equal-probability bins under Exp(mean): edges at the
    // exponential quantiles, so every bin expects n/10 samples.
    const unsigned K = 10;
    std::vector<double> edges;
    for (unsigned k = 1; k < K; ++k)
        edges.push_back(-mean *
                        std::log(1.0 - static_cast<double>(k) / K));
    std::vector<std::uint64_t> observed(K, 0);
    for (double g : gaps) {
        unsigned bin = 0;
        while (bin < K - 1 && g > edges[bin])
            ++bin;
        ++observed[bin];
    }
    const double expect = static_cast<double>(n) / K;
    double chi2 = 0.0;
    for (unsigned k = 0; k < K; ++k)
        chi2 += (observed[k] - expect) * (observed[k] - expect) / expect;
    // chi-squared with 9 degrees of freedom: the 0.999 quantile is
    // 27.88. Cycle quantization shifts each gap by < 1 cycle against
    // bin widths of > 100 cycles, so no correction is needed.
    EXPECT_LT(chi2, 27.88) << "observed bins deviate from Exp(" << mean
                           << ")";
}

TEST(TrafficGof, PoissonGapsPassKolmogorovSmirnov)
{
    const double mean = 1000.0;
    auto gaps = gapsOf("poisson", 42, 4000, mean);
    std::sort(gaps.begin(), gaps.end());
    const double n = static_cast<double>(gaps.size());
    double d = 0.0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        const double f = 1.0 - std::exp(-gaps[i] / mean);
        const double lo = static_cast<double>(i) / n;
        const double hi = static_cast<double>(i + 1) / n;
        d = std::max(d, std::max(std::abs(f - lo), std::abs(hi - f)));
    }
    // K-S: P(D sqrt(n) > 1.95) ~ 0.001 for a fully specified null.
    EXPECT_LT(d * std::sqrt(n), 1.95);
}

TEST(TrafficGof, BurstyCoefficientOfVariationExceedsPoisson)
{
    const double mean = 1000.0;
    const double cv_poisson = cvOf(gapsOf("poisson", 42, 4000, mean));
    const double cv_bursty = cvOf(gapsOf("bursty", 42, 4000, mean));

    // Exponential gaps have CV == 1; the MMPP-2 mixture is measurably
    // overdispersed at the default burstiness.
    EXPECT_GT(cv_poisson, 0.85);
    EXPECT_LT(cv_poisson, 1.15);
    EXPECT_GT(cv_bursty, 1.2);
    EXPECT_GT(cv_bursty, cv_poisson + 0.2);

    // The mixture is tuned to keep the configured mean rate.
    EXPECT_NEAR(meanOf(gapsOf("bursty", 42, 4000, mean)), mean,
                0.10 * mean);
}

TEST(TrafficGof, DiurnalRatePeaksInTheFirstHalfPeriod)
{
    traffic::TrafficConfig cfg;
    cfg.process = "diurnal";
    cfg.tenants = 1;
    cfg.seed = 42;
    cfg.jobsPerTenant = 4000;
    cfg.meanGapCycles = 1000.0;
    cfg.diurnalPeriod = 100'000;
    std::uint64_t day = 0, night = 0;
    for (const traffic::Arrival &a : traffic::generate(cfg))
        ((a.arriveAt % cfg.diurnalPeriod) < cfg.diurnalPeriod / 2
             ? day
             : night)++;
    // rate_scale swings 1 +- 0.8 sinusoidally with the peak in the
    // first half-period, so "daytime" must collect far more arrivals.
    EXPECT_GT(day, night * 3 / 2);
    EXPECT_GT(night, 0u);
}

// ------------------------------------------- determinism contract

TEST(TrafficDeterminism, IdenticalConfigsYieldIdenticalStreams)
{
    traffic::TrafficConfig cfg;
    cfg.process = "bursty";
    cfg.tenants = 4;
    cfg.seed = 7;
    cfg.jobsPerTenant = 32;
    cfg.sloCycles = 500'000;
    const auto a = traffic::generate(cfg);
    const auto b = traffic::generate(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arriveAt, b[i].arriveAt) << i;
        EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
        EXPECT_EQ(a[i].workload, b[i].workload) << i;
        EXPECT_EQ(a[i].sloBudget, b[i].sloBudget) << i;
        EXPECT_EQ(a[i].dependsOn, b[i].dependsOn) << i;
        EXPECT_EQ(a[i].thinkGap, b[i].thinkGap) << i;
        EXPECT_DOUBLE_EQ(a[i].estCost, b[i].estCost) << i;
    }
}

TEST(TrafficDeterminism, DifferentSeedsYieldDifferentStreams)
{
    traffic::TrafficConfig cfg;
    cfg.process = "poisson";
    cfg.tenants = 2;
    cfg.jobsPerTenant = 16;
    cfg.seed = 1;
    const auto a = traffic::generate(cfg);
    cfg.seed = 2;
    const auto b = traffic::generate(cfg);
    ASSERT_EQ(a.size(), b.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].arriveAt != b[i].arriveAt ||
            a[i].workload != b[i].workload)
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(TrafficDeterminism, StreamIsSortedByArrivalThenTenant)
{
    traffic::TrafficConfig cfg;
    cfg.process = "poisson";
    cfg.tenants = 4;
    cfg.seed = 3;
    cfg.jobsPerTenant = 32;
    const auto stream = traffic::generate(cfg);
    for (std::size_t i = 1; i < stream.size(); ++i) {
        const bool ordered =
            stream[i - 1].arriveAt < stream[i].arriveAt ||
            (stream[i - 1].arriveAt == stream[i].arriveAt &&
             stream[i - 1].tenant <= stream[i].tenant);
        EXPECT_TRUE(ordered) << "stream unsorted at " << i;
    }
}

TEST(TrafficDeterminism, ClosedLoopChainsEachTenantStream)
{
    traffic::TrafficConfig cfg;
    cfg.process = "closed";
    cfg.tenants = 3;
    cfg.seed = 11;
    cfg.jobsPerTenant = 8;
    const auto stream = traffic::generate(cfg);
    ASSERT_EQ(stream.size(), 24u);

    std::vector<std::size_t> chain_len(cfg.tenants, 0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const traffic::Arrival &a = stream[i];
        EXPECT_GE(a.thinkGap, 1u) << i;
        if (a.dependsOn == traffic::kNoJob) {
            ++chain_len[a.tenant];
            continue;
        }
        // The predecessor is an earlier entry of the same tenant.
        ASSERT_LT(a.dependsOn, i) << i;
        EXPECT_EQ(stream[a.dependsOn].tenant, a.tenant) << i;
        ++chain_len[a.tenant];
    }
    // Exactly one chain head per tenant and every job accounted for.
    std::size_t heads = 0;
    for (const traffic::Arrival &a : stream)
        if (a.dependsOn == traffic::kNoJob)
            ++heads;
    EXPECT_EQ(heads, cfg.tenants);
    for (unsigned t = 0; t < cfg.tenants; ++t)
        EXPECT_EQ(chain_len[t], cfg.jobsPerTenant) << "tenant " << t;
}

TEST(TrafficDeterminism, GenerateRejectsInvalidConfigs)
{
    traffic::TrafficConfig cfg;
    EXPECT_THROW(traffic::generate(cfg), std::invalid_argument);
    cfg.process = "nonesuch";
    EXPECT_THROW(traffic::generate(cfg), std::invalid_argument);
    cfg.process = "poisson";
    cfg.tenants = 0;
    EXPECT_THROW(traffic::generate(cfg), std::invalid_argument);
    cfg.tenants = 1;
    cfg.jobsPerTenant = 0;
    EXPECT_THROW(traffic::generate(cfg), std::invalid_argument);
    cfg.jobsPerTenant = 1;
    cfg.meanGapCycles = 0.0;
    EXPECT_THROW(traffic::generate(cfg), std::invalid_argument);
    cfg.meanGapCycles = 100.0;
    cfg.workloadSet = {"WL999"};
    EXPECT_THROW(traffic::generate(cfg), std::invalid_argument);
    cfg.workloadSet = {"WL8", "CV3"};
    const auto stream = traffic::generate(cfg);
    for (const traffic::Arrival &a : stream)
        EXPECT_TRUE(a.workload == "WL8" || a.workload == "CV3");
}

TEST(TrafficDeterminism, GenerateRejectsNonFiniteGaps)
{
    // A NaN or infinite gap would reach the float-to-cycle conversion
    // of every sampled gap, which is undefined for such values.
    traffic::TrafficConfig cfg;
    cfg.process = "poisson";
    for (const double gap : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        cfg.meanGapCycles = gap;
        EXPECT_THROW(traffic::generate(cfg), std::invalid_argument) << gap;
    }
}

TEST(TrafficDeterminism, HugeGapsSaturateInsteadOfWrapping)
{
    // Gaps beyond 2^64 cycles once overflowed the float-to-cycle cast
    // and wrapped the stream clock, putting arrivals at cycle 0. They
    // saturate now, leaving headroom for deadlines and backoffs.
    traffic::TrafficConfig cfg;
    cfg.process = "poisson";
    cfg.tenants = 1;
    cfg.jobsPerTenant = 2;
    cfg.meanGapCycles = 1e300;
    const auto stream = traffic::generate(cfg);
    ASSERT_EQ(stream.size(), 2u);
    EXPECT_EQ(stream[0].arriveAt, traffic::kArrivalCap);
    EXPECT_EQ(stream[1].arriveAt, traffic::kArrivalCap);

    // The run reaches its cycle cap with nothing arrived, instead of
    // completing a job that arrived at cycle 0.
    runner::JobSpec spec;
    spec.label = "huge-gap";
    spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    spec.traffic = cfg;
    spec.maxCycles = 20'000;
    const runner::JobResult r = runner::Runner::runOne(spec);
    EXPECT_TRUE(r.result.timedOut);
    EXPECT_EQ(r.trafficMetrics.completed, 0u);
}

TEST(TrafficDeterminism, RegistriesResolveEveryKeyAndRejectUnknowns)
{
    for (const traffic::ArrivalProcess *p : traffic::allProcesses()) {
        EXPECT_EQ(traffic::processByName(p->key()), p);
        EXPECT_NE(p->summary()[0], '\0');
    }
    EXPECT_EQ(traffic::processByName("nonesuch"), nullptr);
    EXPECT_NE(traffic::processByName("poisson"), nullptr);
    EXPECT_TRUE(traffic::processByName("closed")->closedLoop());
    EXPECT_FALSE(traffic::processByName("poisson")->closedLoop());

    for (const traffic::Dispatcher *d : traffic::allDispatchers()) {
        EXPECT_EQ(traffic::dispatcherByName(d->key()), d);
        EXPECT_NE(d->summary()[0], '\0');
    }
    EXPECT_EQ(traffic::dispatcherByName("nonesuch"), nullptr);
    EXPECT_TRUE(traffic::dispatcherByName("oi")->wantsOiScore());
    EXPECT_FALSE(traffic::dispatcherByName("fcfs")->wantsOiScore());
}

// ------------------------------------------- metric primitives

TEST(TrafficMetrics, PercentileNearestRank)
{
    EXPECT_DOUBLE_EQ(traffic::percentileNearestRank({}, 50), 0.0);
    const std::vector<double> v = {10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(traffic::percentileNearestRank(v, 0), 10.0);
    EXPECT_DOUBLE_EQ(traffic::percentileNearestRank(v, 25), 10.0);
    EXPECT_DOUBLE_EQ(traffic::percentileNearestRank(v, 50), 20.0);
    EXPECT_DOUBLE_EQ(traffic::percentileNearestRank(v, 75), 30.0);
    EXPECT_DOUBLE_EQ(traffic::percentileNearestRank(v, 99), 40.0);
    EXPECT_DOUBLE_EQ(traffic::percentileNearestRank(v, 100), 40.0);
    EXPECT_DOUBLE_EQ(traffic::percentileNearestRank({7.0}, 50), 7.0);
}

TEST(TrafficMetrics, JainIndex)
{
    EXPECT_DOUBLE_EQ(traffic::jainIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(traffic::jainIndex({0.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(traffic::jainIndex({3.0, 3.0, 3.0}), 1.0);
    // Maximum imbalance over n tenants approaches 1/n.
    EXPECT_DOUBLE_EQ(traffic::jainIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
    const double j = traffic::jainIndex({4.0, 1.0});
    EXPECT_GT(j, 0.5);
    EXPECT_LT(j, 1.0);
}

TEST(TrafficMetrics, ComputeMetricsAggregates)
{
    std::vector<traffic::JobRecord> recs;
    // Tenant 0: two completed jobs, one violating a 100-cycle SLO.
    recs.push_back({0, 0, 10, 50, 100});
    recs.push_back({0, 100, 120, 300, 100});
    // Tenant 1: one completed, one admitted-but-unfinished.
    recs.push_back({1, 50, 60, 150, kCycleNever});
    recs.push_back({1, 200, 250, kCycleNever, kCycleNever});

    const traffic::TrafficMetrics m =
        traffic::computeMetrics(recs, 2, 1'000'000);
    EXPECT_EQ(m.arrivals, 4u);
    EXPECT_EQ(m.completed, 3u);
    EXPECT_EQ(m.sloViolations, 1u);
    // Queueing delays: 10, 20, 10, 50 over the four admitted jobs.
    EXPECT_DOUBLE_EQ(m.queueingDelayMean, 22.5);
    // Latencies: {50, 200, 100} -> p50 nearest-rank = 100.
    EXPECT_DOUBLE_EQ(m.latencyP50, 100.0);
    EXPECT_DOUBLE_EQ(m.latencyP99, 200.0);
    ASSERT_EQ(m.tenants.size(), 2u);
    EXPECT_EQ(m.tenants[0].arrivals, 2u);
    EXPECT_EQ(m.tenants[0].completed, 2u);
    EXPECT_EQ(m.tenants[0].sloViolations, 1u);
    EXPECT_EQ(m.tenants[1].completed, 1u);
    // Throughput: completed per million cycles over a 1M-cycle horizon.
    EXPECT_DOUBLE_EQ(m.tenants[0].throughput, 2.0);
    EXPECT_DOUBLE_EQ(m.tenants[1].throughput, 1.0);
    EXPECT_GT(m.fairnessJain, 0.0);
    EXPECT_LE(m.fairnessJain, 1.0);
}

// ------------------------------------------- dispatcher selection

/** ctx over a synthetic pending list (no simulator involved). */
std::size_t
pick(const char *key, const std::vector<traffic::PendingJob> &pending,
     std::function<double(std::size_t)> score = nullptr)
{
    const traffic::Dispatcher *d = traffic::dispatcherByName(key);
    EXPECT_NE(d, nullptr) << key;
    traffic::DispatchContext ctx{1000, 0, pending, std::move(score)};
    return d->select(ctx);
}

TEST(TrafficDispatch, FcfsPicksEarliestArrivalThenQueueOrder)
{
    std::vector<traffic::PendingJob> p = {
        {0, 500, 0, kCycleNever, 9.0},
        {1, 100, 1, kCycleNever, 5.0},
        {2, 100, 0, kCycleNever, 1.0},
    };
    EXPECT_EQ(pick("fcfs", p), 1u);     // Earliest arrival, lowest idx.
}

TEST(TrafficDispatch, SjfPicksSmallestEstimate)
{
    std::vector<traffic::PendingJob> p = {
        {0, 100, 0, kCycleNever, 9.0},
        {1, 500, 1, kCycleNever, 2.0},
        {2, 900, 0, kCycleNever, 2.0},
    };
    EXPECT_EQ(pick("sjf", p), 1u);      // Cheapest, ties on queueIdx.
}

TEST(TrafficDispatch, EdfPicksEarliestDeadlineAndParksDeadlineFree)
{
    std::vector<traffic::PendingJob> p = {
        {0, 100, 0, kCycleNever, 1.0},  // No deadline: loses to any.
        {1, 500, 1, 5'000, 1.0},
        {2, 900, 0, 2'000, 1.0},
    };
    EXPECT_EQ(pick("edf", p), 2u);
    // All deadline-free degenerates to FCFS order.
    std::vector<traffic::PendingJob> q = {
        {0, 300, 0, kCycleNever, 1.0},
        {1, 200, 1, kCycleNever, 1.0},
    };
    EXPECT_EQ(pick("edf", q), 1u);
}

TEST(TrafficDispatch, OiPicksBestProgressScoreWithFcfsFallback)
{
    std::vector<traffic::PendingJob> p = {
        {0, 100, 0, kCycleNever, 1.0},
        {1, 200, 1, kCycleNever, 1.0},
        {2, 300, 0, kCycleNever, 1.0},
    };
    EXPECT_EQ(pick("oi", p,
                   [](std::size_t i) {
                       return i == 1 ? 2.0 : 1.0;
                   }),
              1u);
    // Equal scores tie-break on queue order.
    EXPECT_EQ(pick("oi", p, [](std::size_t) { return 1.0; }), 0u);
    // No OI precomputation available: falls back to FCFS.
    EXPECT_EQ(pick("oi", p), 0u);
}

// ------------------------------------------- end-to-end drain

TEST(TrafficEndToEnd, DrainedRunCompletesEveryArrivalDeterministically)
{
    runner::JobSpec spec;
    spec.label = "e2e";
    spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    spec.traffic.process = "poisson";
    spec.traffic.tenants = 3;
    spec.traffic.seed = 9;
    spec.traffic.jobsPerTenant = 3;
    spec.traffic.meanGapCycles = 100'000.0;
    spec.traffic.sloCycles = 2'000'000;

    const runner::JobResult r = runner::Runner::runOne(spec);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.hasTraffic);
    EXPECT_EQ(r.trafficMetrics.arrivals, 9u);
    EXPECT_EQ(r.trafficMetrics.completed, 9u);
    EXPECT_LE(r.trafficMetrics.sloViolations, 9u);
    EXPECT_GT(r.trafficMetrics.fairnessJain, 0.0);
    EXPECT_LE(r.trafficMetrics.fairnessJain, 1.0);
    for (const traffic::JobRecord &j : r.result.trafficJobs) {
        ASSERT_TRUE(j.completed());
        EXPECT_GE(j.admit, j.arrive);
        EXPECT_GT(j.finish, j.admit);
    }

    // Run-twice determinism through the whole pipeline.
    const runner::JobResult r2 = runner::Runner::runOne(spec);
    ASSERT_TRUE(r2.ok()) << r2.error;
    EXPECT_EQ(trace::toJson(r.result), trace::toJson(r2.result));
}

TEST(TrafficEndToEnd, ClosedLoopKeepsOneJobInFlightPerTenant)
{
    runner::JobSpec spec;
    spec.label = "closed-e2e";
    spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    spec.traffic.process = "closed";
    spec.traffic.tenants = 2;
    spec.traffic.seed = 5;
    spec.traffic.jobsPerTenant = 3;
    spec.traffic.meanGapCycles = 50'000.0;

    const runner::JobResult r = runner::Runner::runOne(spec);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.trafficMetrics.completed, 6u);
    // A dependent job's effective arrival is its predecessor's
    // completion plus think time, so per-tenant lifecycles are
    // strictly serial.
    const auto &jobs = r.result.trafficJobs;
    for (unsigned t = 0; t < 2; ++t) {
        Cycle prev_finish = 0;
        for (const traffic::JobRecord &j : jobs) {
            if (j.tenant != t)
                continue;
            EXPECT_GT(j.arrive, prev_finish) << "tenant " << t;
            prev_finish = j.finish;
        }
    }
}

// ------------------------------------------------- admission policies

/** A context with enough slack that every policy admits it. */
traffic::AdmissionContext
easyContext()
{
    traffic::AdmissionContext ctx;
    ctx.now = 1'000;
    ctx.deadline = 2'000'000;
    ctx.sloBudget = 1'999'000;
    ctx.readyJobs = 1;
    ctx.tokens = 4;
    ctx.classServiceEma = 10'000;
    ctx.meanServiceEma = 10'000;
    ctx.cores = 2;
    ctx.cap = 2;
    return ctx;
}

TEST(TrafficAdmission, BackoffDoublesAndSaturates)
{
    EXPECT_EQ(traffic::admissionBackoff(0), 64u);
    EXPECT_EQ(traffic::admissionBackoff(1), 128u);
    EXPECT_EQ(traffic::admissionBackoff(5), 2'048u);
    EXPECT_EQ(traffic::admissionBackoff(10), 65'536u);
    // Saturates: no UB / wraparound far past the cap.
    EXPECT_EQ(traffic::admissionBackoff(63), 65'536u);
    EXPECT_EQ(traffic::admissionBackoff(200), 65'536u);
}

TEST(TrafficAdmission, RegistryResolvesEveryPolicyAndRejectsUnknown)
{
    const auto &all = traffic::allAdmissionPolicies();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0]->key(), "none"); // Default must register first.
    for (const traffic::AdmissionPolicy *p : all) {
        EXPECT_EQ(traffic::admissionByName(p->key()), p);
        EXPECT_FALSE(p->summary().empty());
    }
    EXPECT_EQ(traffic::admissionByName("no-such-policy"), nullptr);
    EXPECT_EQ(traffic::admissionByName(""), nullptr);
    // Only token-bucket needs the System's token bookkeeping.
    for (const traffic::AdmissionPolicy *p : all)
        EXPECT_EQ(p->wantsTokens(), p->key() == "token-bucket");
}

TEST(TrafficAdmission, NoneAdmitsEverything)
{
    const traffic::AdmissionPolicy *p = traffic::admissionByName("none");
    ASSERT_NE(p, nullptr);
    traffic::AdmissionContext ctx; // Worst case: all zero, no slack.
    ctx.readyJobs = 1'000;
    ctx.overloaded = true;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Admit);
    EXPECT_EQ(p->decide(easyContext()),
              traffic::AdmissionDecision::Admit);
}

TEST(TrafficAdmission, StaticCapDefersOverCapNeverSheds)
{
    const traffic::AdmissionPolicy *p =
        traffic::admissionByName("static-cap");
    ASSERT_NE(p, nullptr);
    traffic::AdmissionContext ctx = easyContext();
    ctx.inFlight = 1;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Admit);
    ctx.inFlight = 2; // At the cap: wait, don't reject.
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Defer);
    ctx.inFlight = 9;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Defer);
    ctx.cap = 0; // cap 0 = unbounded, not "defer everything".
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Admit);
}

TEST(TrafficAdmission, TokenBucketSpendsTokensAndShedsTheHopeless)
{
    const traffic::AdmissionPolicy *p =
        traffic::admissionByName("token-bucket");
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(p->wantsTokens());
    traffic::AdmissionContext ctx = easyContext();
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Admit);
    ctx.tokens = 0; // Broke tenant waits for the refill.
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Defer);
    ctx.tokens = 4;
    ctx.now = ctx.deadline + 1; // Already dead: don't burn a token.
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Shed);
    ctx.deadline = kCycleNever; // No SLO: never shed, only rate-limit.
    ctx.tokens = 0;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Defer);
}

TEST(TrafficAdmission, SloAwareShedsOnlyPredictedMisses)
{
    const traffic::AdmissionPolicy *p =
        traffic::admissionByName("slo-aware");
    ASSERT_NE(p, nullptr);

    // No deadline: nothing to protect, always admit.
    traffic::AdmissionContext ctx = easyContext();
    ctx.deadline = kCycleNever;
    ctx.readyJobs = 1'000;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Admit);

    // Already past the deadline: shed, never occupy a core.
    ctx = easyContext();
    ctx.now = ctx.deadline + 1;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Shed);

    // Feasible: shallow queue, slack >> predicted wait + service.
    ctx = easyContext();
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Admit);

    // Infeasible: backlog * mean-service swamps the budget.
    ctx = easyContext();
    ctx.readyJobs = 500;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Shed);

    // No evidence yet (both EMAs zero): admit while the queue is
    // shallow — the prefix executes and becomes the evidence — and
    // defer (never blind-shed) the backlog.
    ctx = easyContext();
    ctx.classServiceEma = 0;
    ctx.meanServiceEma = 0;
    ctx.readyJobs = 2;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Admit);
    ctx.readyJobs = 3;
    EXPECT_EQ(p->decide(ctx), traffic::AdmissionDecision::Defer);
}

// ----------------------------------------------- admission end-to-end

/** The oversubscribed stream of the bench cross (arrival rate far
 *  beyond service rate), shared by the end-to-end admission tests. */
runner::JobSpec
stormSpec(const std::string &admission)
{
    runner::JobSpec spec;
    spec.label = "adm-" + admission;
    spec.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    spec.traffic.process = "poisson";
    spec.traffic.tenants = 4;
    spec.traffic.seed = 11;
    spec.traffic.jobsPerTenant = 4;
    spec.traffic.meanGapCycles = 25'000.0;
    spec.traffic.sloCycles = 600'000;
    spec.traffic.scheduler = "fcfs";
    spec.traffic.admission = admission;
    spec.traffic.admissionCap = 2;
    return spec;
}

/** static-cap with cap 1 serializes each tenant: a job is admitted
 *  only after the tenant's previous one finished, so per-tenant
 *  [admit, finish] intervals never overlap — and, since static-cap
 *  only defers, every job still completes. */
TEST(TrafficEndToEnd, StaticCapSerializesPerTenantInFlight)
{
    runner::JobSpec spec = stormSpec("static-cap");
    spec.traffic.admissionCap = 1;
    spec.traffic.sloCycles = 0; // No deadlines: pure concurrency test.

    const runner::JobResult r = runner::Runner::runOne(spec);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.hasAdmission);
    EXPECT_EQ(r.trafficMetrics.shed, 0u);
    EXPECT_EQ(r.trafficMetrics.completed, r.trafficMetrics.arrivals);
    EXPECT_GT(r.trafficMetrics.deferrals, 0u);

    for (unsigned t = 0; t < spec.traffic.tenants; ++t) {
        std::vector<const traffic::JobRecord *> mine;
        for (const traffic::JobRecord &j : r.result.trafficJobs)
            if (j.tenant == t)
                mine.push_back(&j);
        std::sort(mine.begin(), mine.end(),
                  [](const traffic::JobRecord *a,
                     const traffic::JobRecord *b) {
                      return a->admit < b->admit;
                  });
        for (std::size_t i = 1; i < mine.size(); ++i)
            EXPECT_GE(mine[i]->admit, mine[i - 1]->finish)
                << "tenant " << t << " job " << i;
    }
}

/** The headline robustness property: under a storm the slo-aware
 *  policy converts SLO violations into explicit sheds — every
 *  completion is in-budget (goodput == completed, zero violations),
 *  nothing is silently lost (completed + shed == arrivals), and the
 *  uncontrolled baseline on the same stream does violate. */
TEST(TrafficEndToEnd, SloAwareConvertsViolationsIntoSheds)
{
    const runner::JobResult none =
        runner::Runner::runOne(stormSpec("none"));
    ASSERT_TRUE(none.ok()) << none.error;
    EXPECT_FALSE(none.hasAdmission);
    ASSERT_GT(none.trafficMetrics.sloViolations, 0u)
        << "storm config no longer oversubscribes; retune the test";

    const runner::JobResult r =
        runner::Runner::runOne(stormSpec("slo-aware"));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.hasAdmission);
    const traffic::TrafficMetrics &m = r.trafficMetrics;
    EXPECT_EQ(m.sloViolations, 0u);
    EXPECT_GT(m.shed, 0u);
    EXPECT_EQ(m.completed + m.shed, m.arrivals);
    EXPECT_EQ(m.goodput, m.completed);
    EXPECT_GE(m.goodput, none.trafficMetrics.goodput);

    // Shed jobs are marked, never admitted; survivors all completed.
    std::uint64_t shed_records = 0;
    for (const traffic::JobRecord &j : r.result.trafficJobs) {
        if (j.shed) {
            ++shed_records;
            EXPECT_FALSE(j.admitted());
            EXPECT_FALSE(j.completed());
        } else {
            EXPECT_TRUE(j.completed());
        }
    }
    EXPECT_EQ(shed_records, m.shed);
}

/** Admission-controlled runs stay deterministic: same spec, same
 *  everything — trace, counters, per-job verdicts. */
TEST(TrafficEndToEnd, AdmissionRunsAreDeterministic)
{
    for (const char *adm : {"static-cap", "token-bucket", "slo-aware"}) {
        const runner::JobSpec spec = stormSpec(adm);
        const runner::JobResult a = runner::Runner::runOne(spec);
        const runner::JobResult b = runner::Runner::runOne(spec);
        ASSERT_TRUE(a.ok()) << adm << ": " << a.error;
        ASSERT_TRUE(b.ok()) << adm << ": " << b.error;
        EXPECT_EQ(trace::toJson(a.result), trace::toJson(b.result))
            << adm;
        EXPECT_EQ(a.trafficMetrics.shed, b.trafficMetrics.shed) << adm;
        EXPECT_EQ(a.trafficMetrics.deferrals,
                  b.trafficMetrics.deferrals) << adm;
        EXPECT_EQ(a.trafficMetrics.goodput, b.trafficMetrics.goodput)
            << adm;
    }
}

// ------------------------------------------ session, no simulator

/** Test-only policy returning one fixed verdict. */
class FixedVerdict final : public traffic::AdmissionPolicy
{
  public:
    explicit FixedVerdict(traffic::AdmissionDecision d)
        : AdmissionPolicy("fixed", "test-only: one verdict"), d_(d)
    {
    }

    traffic::AdmissionDecision
    decide(const traffic::AdmissionContext &) const override
    {
        return d_;
    }

  private:
    traffic::AdmissionDecision d_;
};

const FixedVerdict kAdmitAll(traffic::AdmissionDecision::Admit);

traffic::Arrival
arrivalAt(Cycle at, unsigned tenant = 0)
{
    traffic::Arrival a;
    a.arriveAt = at;
    a.tenant = tenant;
    a.workload = "A";
    return a;
}

/** Backlog depth trips the detector at ready >= 4 x cores; it exits
 *  only once ready <= cores, and a backlog between the two thresholds
 *  neither exits nor re-enters. */
TEST(TrafficSession, OverloadHysteresisOnBacklogDepth)
{
    std::vector<traffic::Arrival> q(6, arrivalAt(0));
    q.push_back(arrivalAt(100));
    q.push_back(arrivalAt(100));
    q.push_back(arrivalAt(200));
    traffic::Session s(q, 1, &kAdmitAll, 4, 0, nullptr);
    std::vector<bool> dispatched(q.size(), false);

    s.admitArrivals(0, dispatched);
    EXPECT_EQ(s.readyJobs(), 6u);
    EXPECT_TRUE(s.overloaded());
    EXPECT_EQ(s.overloadEnters(), 1u);
    for (std::size_t j = 0; j < 4; ++j) {
        s.selected(j, 0, 10);   // Ready 5, 4, 3, 2: still > cores.
        EXPECT_TRUE(s.overloaded()) << "ready " << s.readyJobs();
    }
    s.selected(4, 0, 10);       // Ready 1 <= cores: exit.
    EXPECT_FALSE(s.overloaded());

    s.admitArrivals(100, dispatched);   // Ready 3: below the entry bar.
    EXPECT_EQ(s.readyJobs(), 3u);
    EXPECT_FALSE(s.overloaded());
    s.admitArrivals(200, dispatched);   // Ready 4 = 4 x cores: re-enter.
    EXPECT_TRUE(s.overloaded());
    EXPECT_EQ(s.overloadEnters(), 2u);
}

/** Latency trips the detector at p95 > 4 x mean service EMA; it exits
 *  only once p95 <= 2 x EMA (and the backlog is drained), holding its
 *  state anywhere in between. */
TEST(TrafficSession, OverloadHysteresisOnQueueingDelay)
{
    std::vector<traffic::Arrival> q(4, arrivalAt(0));
    q.push_back(arrivalAt(20'000));
    q.push_back(arrivalAt(20'000));
    traffic::Session s(q, 4, &kAdmitAll, 4, 0, nullptr);
    std::vector<bool> dispatched(q.size(), false);

    s.admitArrivals(0, dispatched);
    s.selected(0, 0, 0);
    s.started(0, 0);
    s.completed(0, 1'000);      // Mean service EMA = 1000.
    s.selected(1, 1, 3'000);    // p95 3000: inside the band.
    EXPECT_FALSE(s.overloaded());
    s.selected(2, 2, 4'001);    // p95 4001 > 4 x 1000: enter.
    EXPECT_TRUE(s.overloaded());

    s.started(1, 1);
    s.completed(1, 4'400);      // Service 1400: EMA = 1100.
    s.selected(3, 1, 4'400);    // p95 4400: inside the band, hold.
    EXPECT_TRUE(s.overloaded());

    s.started(2, 2);
    s.completed(2, 20'000);     // Service 15999: EMA = 4824.
    s.admitArrivals(20'000, dispatched);   // p95 4400 <= 2 x EMA: exit.
    EXPECT_FALSE(s.overloaded());
    EXPECT_EQ(s.overloadEnters(), 1u);
}

/** Token buckets start full, refill lazily (one token per tenant per
 *  period, capped at `cap`, only when that tenant's candidate is
 *  evaluated), and are spent at admission, never at dispatch. */
TEST(TrafficSession, LazyTokenRefillSpendsAtAdmission)
{
    std::vector<traffic::Arrival> q(5, arrivalAt(0, 0));
    q.push_back(arrivalAt(0, 1));
    traffic::Session s(q, 2, traffic::admissionByName("token-bucket"), 2,
                       1'000, nullptr);
    std::vector<bool> dispatched(q.size(), false);

    s.admitArrivals(0, dispatched);
    EXPECT_TRUE(s.job(0).latched);
    EXPECT_TRUE(s.job(1).latched);
    EXPECT_FALSE(s.job(2).latched);     // Bucket empty: deferred.
    EXPECT_EQ(s.job(2).defers, 1u);
    EXPECT_EQ(s.tokens(0), 0u);
    EXPECT_EQ(s.tokens(1), 1u);

    s.selected(0, 0, 10);
    EXPECT_EQ(s.tokens(0), 0u);         // Dispatch spends nothing.

    ASSERT_TRUE(s.due(2'500));          // Backoff expired long ago.
    s.admitArrivals(2'500, dispatched); // Two periods: two tokens.
    EXPECT_TRUE(s.job(2).latched);
    EXPECT_TRUE(s.job(3).latched);
    EXPECT_FALSE(s.job(4).latched);
    EXPECT_EQ(s.tokens(0), 0u);

    s.admitArrivals(100'000, dispatched);   // 98 periods, capped at 2.
    EXPECT_TRUE(s.job(4).latched);
    EXPECT_EQ(s.tokens(0), 1u);
    EXPECT_EQ(s.tokens(1), 1u);         // Never evaluated: no refill.
}

/** A shed releases the closed-loop successor at now + thinkGap, the
 *  same release a completion performs. */
TEST(TrafficSession, ShedReleasesSuccessorLikeCompletion)
{
    std::vector<traffic::Arrival> q{arrivalAt(100), arrivalAt(100)};
    q[1].dependsOn = 0;
    q[1].thinkGap = 500;

    const FixedVerdict shed_all(traffic::AdmissionDecision::Shed);
    traffic::Session shed(q, 1, &shed_all, 4, 0, nullptr);
    std::vector<bool> dispatched(q.size(), false);
    EXPECT_EQ(shed.arrivalWake(0), 100u);
    EXPECT_EQ(shed.admitArrivals(100, dispatched), 1u);
    EXPECT_TRUE(shed.job(0).shed);
    EXPECT_TRUE(dispatched[0]);
    EXPECT_EQ(shed.job(1).arrive, 600u);
    EXPECT_EQ(shed.arrivalWake(100), 600u);

    traffic::Session done(q, 1, nullptr, 4, 0, nullptr);
    std::fill(dispatched.begin(), dispatched.end(), false);
    EXPECT_EQ(done.admitArrivals(100, dispatched), 0u);
    done.selected(0, 0, 100);
    done.started(0, 0);
    EXPECT_EQ(done.job(1).arrive, kCycleNever);  // Unresolved.
    done.completed(0, 900);
    EXPECT_EQ(done.job(1).arrive, 1'400u);
    EXPECT_EQ(done.arrivalWake(900), 1'400u);
}

} // namespace
} // namespace occamy
