/**
 * @file
 * cluster_traffic: one 4x4 Occamy machine (4 clusters of 4 cores) fed a
 * seeded bursty multi-tenant arrival stream under EDF dispatch and
 * slo-aware admission, ticked with simThreads = min(clusters, nproc).
 * The offered load overloads the machine in bursts (admission defers
 * and sheds) and leaves it idle between them (fast-forward skips).
 */

#include <algorithm>
#include <memory>

#include "bench.hh"
#include "compiler/compiler.hh"
#include "traffic/admission.hh"
#include "traffic/metrics.hh"
#include "traffic/scheduler.hh"
#include "traffic/traffic.hh"

namespace perfbench
{

using namespace occamy;

namespace
{

constexpr unsigned kClusters = 4;
constexpr unsigned kCoresPerCluster = 4;
/** Host-timed step of the cycle loop: request_ms_* is the host time of
 *  one advance() over this many simulated cycles. */
constexpr Cycle kChunk = 10'000;
constexpr Cycle kMaxCycles = 200'000'000;
/** Cycles simulated with and without an event sink for obs.*. */
constexpr Cycle kObsWindow = 200'000;
constexpr Cycle kObsWindowTiny = 20'000;
/** Extra boots whose set-up time joins the setup_s median. */
constexpr int kSetupReps = 21;

/** The stream is kBursts bursts of the bursty process, kBurstPeriod
 *  cycles apart. Each burst outruns the 16 cores (admission defers and
 *  sheds); the machine drains and idles before the next one
 *  (fast-forward skips). */
constexpr unsigned kBursts = 2;
constexpr Cycle kBurstPeriod = 1'000'000;

/** One burst: one job per tenant, every tenant in the MMPP's burst
 *  mode. A single short memory-bound class keeps the simulated work of
 *  a stream nearly independent of the seed, so host times from
 *  different seeds compare. */
traffic::TrafficConfig
burstConfig(std::uint64_t seed, unsigned burst, bool tiny)
{
    traffic::TrafficConfig tc;
    tc.process = "bursty";
    tc.scheduler = "edf";
    tc.admission = "slo-aware";
    tc.seed = seed * 1'000'003 + burst;
    tc.tenants = tiny ? 4 : 40;
    tc.jobsPerTenant = 1;
    tc.meanGapCycles = 45'000;
    tc.sloCycles = 450'000;
    tc.workloadSet = {"CV7"};
    return tc;
}

/** The seeded arrival stream: each burst generated by
 *  traffic::generate and shifted into its own period. */
std::vector<traffic::Arrival>
makeStream(std::uint64_t seed, bool tiny, SpanLog *log)
{
    std::vector<traffic::Arrival> out;
    for (unsigned b = 0; b < kBursts; ++b) {
        Scope s(log, "traffic.generate");
        for (traffic::Arrival a :
             traffic::generate(burstConfig(seed, b, tiny))) {
            a.arriveAt += b * kBurstPeriod;
            out.push_back(std::move(a));
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const traffic::Arrival &x,
                        const traffic::Arrival &y) {
                         return x.arriveAt < y.arriveAt;
                     });
    return out;
}

/** A booted traffic machine. Not movable: RunOptions borrows ff. */
struct Booted
{
    std::unique_ptr<System> sys;
    FastForwardStats ff;
    std::size_t arrivals = 0;
    double setupS = 0;
};

std::unique_ptr<Booted>
bootTraffic(const Options &o, unsigned threads, SpanLog *log,
            obs::EventSink *sink = nullptr)
{
    auto b = std::make_unique<Booted>();
    const Clock::time_point t0 = Clock::now();
    const std::vector<traffic::Arrival> arrivals =
        makeStream(o.seed, o.tiny, log);
    const MachineConfig cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                                  .topology(kClusters, kCoresPerCluster)
                                  .build();
    if (log) {
        // The queue compiles each job at dispatch, inside advance();
        // replay those compiles here to time the compiler layer.
        const Compiler comp(CompileOptions::forMachine(cfg));
        for (const traffic::Arrival &a : arrivals) {
            Scope s(log, "compiler.compile");
            comp.compile(a.workload, a.loops);
        }
    }
    b->sys = std::make_unique<System>(cfg);
    for (const traffic::Arrival &a : arrivals)
        b->sys->enqueueArrival(a);
    b->arrivals = arrivals.size();
    const traffic::TrafficConfig tc = burstConfig(o.seed, 0, o.tiny);
    b->sys->setDispatcher(traffic::dispatcherByName(tc.scheduler));
    b->sys->setAdmission(traffic::admissionByName(tc.admission),
                         tc.admissionCap,
                         static_cast<Cycle>(tc.meanGapCycles));
    RunOptions ro;
    ro.maxCycles = kMaxCycles;
    ro.simThreads = threads;
    ro.ffStats = &b->ff;
    ro.sink = sink;
    {
        Scope s(log, "sim.boot");
        b->sys->boot(ro);
    }
    b->setupS = since(t0);
    return b;
}

/** One drained run: the measured phase of a repetition. */
struct Drained
{
    RunResult res;
    double wallS = 0;           ///< advance() chunks plus finalize().
    double advanceS = 0;
    std::vector<double> chunkMs;
    std::string digest;
};

Drained
drain(Booted &b, SpanLog *log)
{
    Drained d;
    const Clock::time_point t0 = Clock::now();
    for (bool done = false; !done;) {
        const Clock::time_point c0 = Clock::now();
        {
            Scope s(log, "sim.advance");
            done = b.sys->advance(b.sys->now() + kChunk);
        }
        d.chunkMs.push_back(1e3 * since(c0));
    }
    d.advanceS = since(t0);
    {
        Scope s(log, "sim.finalize");
        d.res = b.sys->finalize();
    }
    d.wallS = since(t0);
    Digest dg;
    addRun(dg, d.res);
    d.digest = dg.hex();
    return d;
}

/** The run's correctness checks: no cap hit, every arrival completed
 *  or shed exactly once. */
void
checkRun(const Drained &d, std::size_t arrivals, unsigned tenants,
         Result &r)
{
    r.check(!d.res.timedOut, "traffic run hit the cycle cap");
    const traffic::TrafficMetrics m =
        traffic::computeMetrics(d.res.trafficJobs, tenants, d.res.cycles);
    r.check(m.arrivals == arrivals && m.arrivals == m.completed + m.shed,
            "traffic arrivals != completed + shed");
    for (const traffic::JobRecord &j : d.res.trafficJobs)
        r.check(j.completed() != j.shed,
                "a traffic job is neither completed nor shed, or both");
}

} // namespace

void
runClusterTraffic(const Options &o, Result &r)
{
    const unsigned tenants = burstConfig(o.seed, 0, o.tiny).tenants;
    const unsigned threads = std::min(kClusters, o.nproc);

    std::vector<double> setup, walls, chunkMs, cpus;
    for (int i = 0; i < kSetupReps; ++i)
        setup.push_back(bootTraffic(o, threads, nullptr)->setupS);
    Drained first;
    const Clock::time_point start = Clock::now();
    do {
        auto b = bootTraffic(o, threads, nullptr);
        setup.push_back(b->setupS);
        const double c0 = selfCpuSeconds();
        Drained d = drain(*b, nullptr);
        cpus.push_back(selfCpuSeconds() - c0);
        ++r.attempted;
        r.failed += d.res.timedOut ? 1 : 0;
        checkRun(d, b->arrivals, tenants, r);
        walls.push_back(d.wallS);
        chunkMs.insert(chunkMs.end(), d.chunkMs.begin(), d.chunkMs.end());
        if (walls.size() == 1)
            first = std::move(d);
        else
            r.check(d.digest == first.digest,
                    "traffic result differs between repetitions");
    } while (!o.trace && since(start) < o.seconds);
    r.digest = first.digest;
    r.notes["runs"] = std::to_string(walls.size());
    r.notes["cpu_s"] = std::to_string(median(cpus));
    r.notes["request_samples"] = std::to_string(chunkMs.size());

    const traffic::TrafficMetrics m = traffic::computeMetrics(
        first.res.trafficJobs, tenants, first.res.cycles);
    const double cycles = static_cast<double>(first.res.cycles);
    const double wall = median(walls);
    if (!o.trace) {
        r.set("setup_s", median(setup));
        r.set("wall_s", wall);
        r.set("sim_mcycles_per_s", cycles / wall / 1e6);
        r.set("peak_rss_mb", selfPeakRssMb());
        r.set("ok_frac", 1.0 - static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted));
        r.set("request_ms_p50", percentile(chunkMs, 50));
        r.set("request_ms_p95", percentile(chunkMs, 95));
        r.set("sim_latency_p95_mcycles", m.latencyP95 / 1e6);
        return;
    }

    // --- Per-layer pass: a traced run at the same thread count. ---
    std::vector<SpanLog> logs;
    logs.emplace_back(Clock::now(), 0);
    SpanLog *log = &logs[0];
    Drained traced;
    FastForwardStats ff;
    {
        Scope s(log, "bench.run", 1);
        auto b = bootTraffic(o, threads, log);
        traced = drain(*b, log);
        ff = b->ff;
    }
    r.check(traced.digest == first.digest,
            "traced traffic run differs from the untraced one");
    r.set("trace.overhead", traced.wallS / wall);

    // One pass at a single sim-thread: the N-thread result must match
    // it byte for byte, and the ratio of advance times is what the
    // worker pool buys.
    {
        auto b = bootTraffic(o, 1, nullptr);
        const Drained serial = drain(*b, nullptr);
        r.check(serial.digest == first.digest,
                "cluster_traffic result at " + std::to_string(threads) +
                    " sim-threads differs from 1 sim-thread");
        r.set("sim.thread_speedup", serial.advanceS / first.advanceS);
    }

    const double advance = spanSeconds(logs, "sim.advance");
    r.set("compiler.compile_ms", 1e3 * spanSeconds(logs, "compiler.compile"));
    r.set("compiler.programs",
          static_cast<double>(spanDurations(logs, "compiler.compile").size()));
    r.set("sim.boot_ms_p50", 1e3 * median(spanDurations(logs, "sim.boot")));
    r.set("sim.advance_s", advance);
    r.set("sim.finalize_ms", 1e3 * spanSeconds(logs, "sim.finalize"));
    r.set("sim.ns_per_cycle", 1e9 * advance / cycles);
    r.set("sim.ns_per_core_cycle",
          1e9 * advance / (cycles * kClusters * kCoresPerCluster));
    r.set("sim.ns_per_ticked_cycle",
          1e9 * advance / static_cast<double>(ff.cyclesTicked));
    r.set("sim.ff_leverage", static_cast<double>(ff.cyclesSimulated) /
                                 static_cast<double>(ff.cyclesTicked));
    r.set("traffic.generate_ms",
          1e3 * spanSeconds(logs, "traffic.generate"));
    emitSelfTimes(logs, {"compiler", "sim", "traffic"}, r);

    const double arrivals = static_cast<double>(m.arrivals);
    r.set("traffic.arrivals", arrivals);
    r.set("traffic.deferrals", static_cast<double>(m.deferrals));
    r.set("traffic.shed", static_cast<double>(m.shed));
    r.set("traffic.overload_enters",
          static_cast<double>(first.res.overloadEnters));
    r.set("traffic.admit_ratio", static_cast<double>(m.completed) / arrivals);
    r.set("traffic.queueing_delay_mean_kcycles", m.queueingDelayMean / 1e3);
    r.set("slo_goodput_frac", static_cast<double>(m.goodput) / arrivals);
    LayerCounts counts;
    counts.add(first.res);
    counts.emit(r);

    // obs: the first kObsWindow cycles with every event category into
    // a RingSink, against the same window untraced.
    {
        std::vector<double> off, on;
        std::uint64_t events = 0;
        for (int rep = 0; rep < 3; ++rep) {
            for (bool tracedRun : {false, true}) {
                obs::RingSink sink(1u << 22, obs::kEvAll);
                auto b = bootTraffic(o, threads, nullptr,
                                     tracedRun ? &sink : nullptr);
                const Clock::time_point t0 = Clock::now();
                b->sys->advance(o.tiny ? kObsWindowTiny : kObsWindow);
                (tracedRun ? on : off).push_back(since(t0));
                if (tracedRun)
                    events = sink.size() + sink.dropped();
            }
        }
        r.set("obs.events", static_cast<double>(events));
        r.set("obs.trace_overhead", median(on) / median(off));
    }

    const std::string path = o.workdir + "/spans_cluster_traffic.json";
    r.check(writeSpans(logs, path), "cannot write " + path);
    r.notes["spans"] = path;
}

} // namespace perfbench
