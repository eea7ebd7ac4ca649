/**
 * @file
 * serve_session: one scripted client in a closed loop against an
 * occamy-serve child process. occamy-serve reads one request at a time
 * from stdin, so an open loop would only measure its own pipe backlog.
 *
 * One round of the script is three blocks, in an order drawn from the
 * seed:
 *   runs     pool 2 instances, then 3 runs: two pool hits, one miss;
 *   stepped  load, steps, inspect, checkpoint to a file, steps,
 *            restore from the file, steps, finalize;
 *   traffic  load a traffic session with slo-aware admission, step it,
 *            finalize.
 * Every round holds the same requests, so rounds compare.
 */

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "compiler/compiler.hh"
#include "policy/sharing_model.hh"
#include "serve_client.hh"
#include "traffic/admission.hh"
#include "traffic/metrics.hh"
#include "traffic/scheduler.hh"
#include "traffic/traffic.hh"
#include "workloads/suite.hh"

#ifndef PERFBENCH_SERVE_BIN
#define PERFBENCH_SERVE_BIN "occamy-serve"
#endif

namespace perfbench
{

using namespace occamy;

namespace
{

/** Daemon starts whose set-up time gives the setup_s median. */
constexpr int kSetupReps = 3;
constexpr int kPoolCount = 2;

/** The pair every run and the stepped session simulate: WL20 (memory)
 *  with WL9 (compute) under Occamy, the shortest catalog pair. */
const char *const kPairSpec = "\"policy\":\"occamy\",\"pair\":\"20+9\"";
constexpr unsigned kPairCore0 = 20, kPairCore1 = 9;

/** The traffic session: a small bursty stream on the default 2-core
 *  machine, slo-aware admission. Its arrival seed is fixed; the
 *  benchmark seed only orders the script. */
constexpr std::uint64_t kTrafficSeed = 3;
constexpr unsigned kTrafficTenants = 2;
constexpr std::uint64_t kTrafficJobs = 2;
constexpr double kTrafficGap = 20'000;
constexpr Cycle kTrafficSlo = 150'000;
constexpr unsigned kTrafficCap = 2;

std::string
trafficSpec()
{
    return "\"policy\":\"occamy\",\"traffic\":\"bursty\",\"tenants\":\"" +
           std::to_string(kTrafficTenants) + "\",\"traffic-jobs\":\"" +
           std::to_string(kTrafficJobs) + "\",\"arrival-seed\":\"" +
           std::to_string(kTrafficSeed) + "\",\"traffic-rate\":\"" +
           std::to_string(static_cast<unsigned>(kTrafficGap)) +
           "\",\"slo-cycles\":\"" + std::to_string(kTrafficSlo) +
           "\",\"scheduler\":\"fcfs\",\"admission\":\"slo-aware\","
           "\"admission-cap\":\"" +
           std::to_string(kTrafficCap) + "\"";
}

/** One scripted request. */
struct Req
{
    std::string cmd;        ///< pool|run|load|step|inspect|checkpoint|...
    std::string body;       ///< JSON members after cmd and id.
    Cycle cycles = 0;       ///< step size.
    bool traffic = false;   ///< load of the traffic session.
};

std::vector<Req>
block(int which, const std::string &ckptFile, bool tiny)
{
    const std::string pair = kPairSpec;
    const std::string file = "\"file\":\"" + ckptFile + "\"";
    std::vector<Req> b;
    auto steps = [&](int n, Cycle c) {
        for (int i = 0; i < n; ++i)
            b.push_back({"step", "\"cycles\":\"" + std::to_string(c) + "\"",
                         c, false});
    };
    if (which == 0) {
        b.push_back({"pool", pair + ",\"count\":\"" +
                                 std::to_string(kPoolCount) + "\"",
                     0, false});
        for (int i = 0; i < kPoolCount + 1; ++i)
            b.push_back({"run", pair, 0, false});
    } else if (which == 1) {
        b.push_back({"load", pair, 0, false});
        steps(tiny ? 1 : 4, 10'000);
        b.push_back({"inspect", "\"path\":\"system\"", 0, false});
        b.push_back({"checkpoint", file, 0, false});
        steps(tiny ? 1 : 2, 10'000);
        b.push_back({"restore", file + "," + pair, 0, false});
        steps(tiny ? 1 : 5, 10'000);
        b.push_back({"finalize", "", 0, false});
    } else {
        b.push_back({"load", trafficSpec(), 0, true});
        steps(tiny ? 1 : 8, 25'000);
        b.push_back({"finalize", "", 0, false});
    }
    return b;
}

/** One round: the three blocks in a seed-drawn order. */
std::vector<Req>
roundScript(std::uint64_t seed, int index, const std::string &ckptFile,
            bool tiny)
{
    int order[3] = {0, 1, 2};
    traffic::Rng rng(seed * 7919 + static_cast<std::uint64_t>(index));
    for (int i = 2; i > 0; --i)
        std::swap(order[i], order[rng.range(0, static_cast<unsigned>(i))]);
    std::vector<Req> out;
    for (int w : order) {
        const std::vector<Req> b = block(w, ckptFile, tiny);
        out.insert(out.end(), b.begin(), b.end());
    }
    return out;
}

/** What the client saw of one round. */
struct RoundLog
{
    double wallS = 0;
    std::vector<double> ms;     ///< Per request, script order.
    std::vector<Reply> replies;
    double simCycles = 0;       ///< Cycles the daemon simulated.
    std::vector<double> jobCycles;  ///< Length of each finished run.
};

std::string
fmtReq(const Req &q, std::uint64_t id)
{
    std::string line = "{\"cmd\":\"" + q.cmd + "\",\"id\":\"" +
                       std::to_string(id) + "\"";
    if (!q.body.empty())
        line += "," + q.body;
    return line + "}";
}

double
num(const Reply &r, const char *k)
{
    const auto it = r.find(k);
    return it == r.end() ? 0.0 : std::atof(it->second.c_str());
}

/** Run one round on @p c, checking the replies as they come. */
RoundLog
runRound(ServeClient &c, const std::vector<Req> &script,
         std::uint64_t &nextId, SpanLog *log, Result &r, Digest &dg)
{
    RoundLog out;
    double sessionCycle = 0;
    std::string runCycles, runUtil, sessionCycles, sessionUtil;
    const Clock::time_point t0 = Clock::now();
    for (const Req &q : script) {
        const std::uint64_t id = nextId++;
        const Clock::time_point q0 = Clock::now();
        Reply rep;
        {
            Scope s(log, "serve." + q.cmd, id);
            rep = c.request(fmtReq(q, id));
        }
        out.ms.push_back(1e3 * since(q0));
        ++r.attempted;
        if (rep["ok"] != "true") {
            ++r.failed;
            r.check(false, "serve " + q.cmd + " failed: " + rep["error"]);
        }
        for (const auto &[k, v] : rep)
            if (k != "file")
                dg.add(k + "=" + v);

        // Simulated work, from the replies' cycle counters.
        const std::string &ev = rep["event"];
        if (ev == "done") {
            out.simCycles += num(rep, "cycles");
            out.jobCycles.push_back(num(rep, "cycles"));
            if (runCycles.empty()) {
                runCycles = rep["cycles"];
                runUtil = rep["simd_util"];
            }
            r.check(rep["cycles"] == runCycles &&
                        rep["simd_util"] == runUtil,
                    "pooled and inline runs of one spec differ");
        } else if (ev == "loaded" || ev == "restored") {
            sessionCycle = num(rep, "cycle");
        } else if (ev == "stepped") {
            out.simCycles += std::max(0.0, num(rep, "cycle") - sessionCycle);
            sessionCycle = num(rep, "cycle");
        } else if (ev == "finalized") {
            out.simCycles +=
                std::max(0.0, num(rep, "cycles") - sessionCycle);
            out.jobCycles.push_back(num(rep, "cycles"));
            if (rep["label"].find("/fcfs") == std::string::npos) {
                sessionCycles = rep["cycles"];
                sessionUtil = rep["simd_util"];
            }
        }
        out.replies.push_back(std::move(rep));
    }
    out.wallS = since(t0);
    // The README's restore-equivalence contract: the stepped,
    // checkpointed and restored session ends where a straight run ends.
    r.check(!runCycles.empty() && sessionCycles == runCycles &&
                sessionUtil == runUtil,
            "stepped, checkpointed and restored session finalized "
            "differently from a straight run");
    return out;
}

// ------------------------------------------------------------- replay

/** The same System calls the daemon makes for a request, made
 *  in-process. Mirrors occamy-serve's makeEntry for the two specs the
 *  script uses, including its always-on engine-event ring. */
struct Entry
{
    MachineConfig cfg;
    std::unique_ptr<obs::RingSink> sink;
    RunOptions opt;
    FastForwardStats ff;
    std::unique_ptr<System> sys;
    bool traffic = false;
};

std::unique_ptr<Entry>
makeEntry(bool traffic, SpanLog *log, std::uint64_t id)
{
    auto e = std::make_unique<Entry>();
    e->traffic = traffic;
    e->cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    e->sys = std::make_unique<System>(e->cfg);
    if (traffic) {
        traffic::TrafficConfig tc;
        tc.process = "bursty";
        tc.tenants = kTrafficTenants;
        tc.seed = kTrafficSeed;
        tc.jobsPerTenant = kTrafficJobs;
        tc.meanGapCycles = kTrafficGap;
        tc.sloCycles = kTrafficSlo;
        tc.scheduler = "fcfs";
        tc.admission = "slo-aware";
        tc.admissionCap = kTrafficCap;
        std::vector<traffic::Arrival> arrivals;
        {
            Scope s(log, "traffic.generate", id);
            arrivals = traffic::generate(tc);
        }
        for (const traffic::Arrival &a : arrivals)
            e->sys->enqueueArrival(a);
        e->sys->setDispatcher(traffic::dispatcherByName(tc.scheduler));
        e->sys->setAdmission(traffic::admissionByName(tc.admission),
                             tc.admissionCap,
                             static_cast<Cycle>(tc.meanGapCycles));
    } else {
        const workloads::Workload w0 = workloads::specWorkload(kPairCore0);
        const workloads::Workload w1 = workloads::specWorkload(kPairCore1);
        {
            // Boot compiles these; time the compiler layer by replaying
            // the same compiles.
            const policy::SharingModel &m = policy::model(e->cfg.policy);
            for (unsigned c = 0; c < 2; ++c) {
                Scope s(log, "compiler.compile", id);
                Compiler(CompileOptions::forMachine(
                             e->cfg, m.perCoreFixedVl(e->cfg, c)))
                    .compile(c ? w1.name : w0.name,
                             c ? w1.loops : w0.loops);
            }
        }
        e->sys->setWorkload(0, w0.name, w0.loops);
        e->sys->setWorkload(1, w1.name, w1.loops);
    }
    e->opt.maxCycles = 40'000'000;
    e->opt.ffStats = &e->ff;
    e->sink = std::make_unique<obs::RingSink>(1u << 20, obs::kEvEngine);
    e->opt.sink = e->sink.get();
    return e;
}

/** Replays a round's requests against in-process Systems. */
class Replayer
{
  public:
    Replayer(SpanLog *log, std::string ckptFile)
        : log_(log), file_(std::move(ckptFile))
    {
    }

    void
    play(const Req &q, std::uint64_t id, const Reply &reply)
    {
        Scope top(log_, "bench.replay", id);
        if (q.cmd == "pool") {
            for (int i = 0; i < kPoolCount; ++i) {
                auto e = makeEntry(false, log_, id);
                boot(*e, id);
                e->sink->take();
                pool_.push_back(std::move(e));
            }
        } else if (q.cmd == "run") {
            std::unique_ptr<Entry> e = acquire(false, id);
            finish(*e, id, reply);
        } else if (q.cmd == "load") {
            session_ = acquire(q.traffic, id);
        } else if (q.cmd == "step") {
            Scope s(log_, "sim.advance", id);
            session_->sys->advance(session_->sys->now() + q.cycles);
        } else if (q.cmd == "inspect") {
            Scope s(log_, "sim.inspect", id);
            session_->sys->inspect("system");
        } else if (q.cmd == "checkpoint") {
            Scope s(log_, "ckpt.save", id);
            std::ofstream os(file_, std::ios::binary | std::ios::trunc);
            session_->sys->saveCheckpoint(os);
        } else if (q.cmd == "restore") {
            auto e = makeEntry(false, log_, id);
            Scope s(log_, "ckpt.restore", id);
            std::ifstream is(file_, std::ios::binary);
            e->sys->restoreCheckpoint(is, e->opt);
            session_ = std::move(e);
        } else if (q.cmd == "finalize") {
            finish(*session_, id, reply);
            session_.reset();
        }
    }

    /** Results of every replayed run and session, for layer counts. */
    std::vector<RunResult> results;
    std::vector<FastForwardStats> ffs;
    RunResult trafficResult;
    std::vector<std::string> mismatches;

  private:
    void
    boot(Entry &e, std::uint64_t id)
    {
        Scope s(log_, "sim.boot", id);
        e.sys->boot(e.opt);
    }

    std::unique_ptr<Entry>
    acquire(bool traffic, std::uint64_t id)
    {
        if (!traffic && !pool_.empty()) {
            auto e = std::move(pool_.front());
            pool_.erase(pool_.begin());
            return e;
        }
        auto e = makeEntry(traffic, log_, id);
        boot(*e, id);
        return e;
    }

    /** The daemon's streamToCompletion plus finalize. */
    void
    finish(Entry &e, std::uint64_t id, const Reply &reply)
    {
        {
            Scope s(log_, "sim.advance", id);
            while (!e.sys->advance(e.sys->now() + 2'000'000)) {
            }
        }
        RunResult res;
        {
            Scope s(log_, "sim.finalize", id);
            res = e.sys->finalize();
        }
        e.sink->take();
        const auto it = reply.find("cycles");
        if (it == reply.end() || std::to_string(res.cycles) != it->second)
            mismatches.push_back("replayed run differs from the daemon's");
        if (e.traffic)
            trafficResult = res;
        results.push_back(std::move(res));
        ffs.push_back(e.ff);
    }

    SpanLog *log_;
    std::string file_;
    std::vector<std::unique_ptr<Entry>> pool_;
    std::unique_ptr<Entry> session_;
};

/** Spawn a daemon and fill its pool; @return set-up seconds. */
double
startDaemon(std::unique_ptr<ServeClient> &c, std::uint64_t &nextId,
            Result &r)
{
    const Clock::time_point t0 = Clock::now();
    c = std::make_unique<ServeClient>(PERFBENCH_SERVE_BIN);
    const Reply hello = c->request(fmtReq({"hello", "", 0, false}, nextId++));
    r.check(hello.count("ok") && hello.at("ok") == "true",
            "occamy-serve hello failed");
    const Reply pooled = c->request(fmtReq(
        {"pool",
         std::string(kPairSpec) + ",\"count\":\"" +
             std::to_string(kPoolCount) + "\"",
         0, false},
        nextId++));
    r.check(pooled.count("ok") && pooled.at("ok") == "true",
            "occamy-serve pool fill failed");
    return since(t0);
}

} // namespace

void
runServeSession(const Options &o, Result &r)
{
    const std::string ckptFile = o.workdir + "/serve_session.ckpt";
    std::uint64_t nextId = 1;
    std::vector<double> setup;
    std::unique_ptr<ServeClient> client;
    for (int i = 0; i < kSetupReps; ++i) {
        if (client)
            r.check(client->shutdown(), "occamy-serve did not exit cleanly");
        setup.push_back(startDaemon(client, nextId, r));
    }
    // Each round fills the pool with its own pool request. Drain what
    // set-up pooled, so every round starts from an empty pool.
    for (int i = 0; i < kPoolCount; ++i)
        client->request(fmtReq({"load", kPairSpec, 0, false}, nextId++));
    client->request(fmtReq({"finalize", "", 0, false}, nextId++));

    Digest dg;
    std::vector<RoundLog> rounds;
    std::vector<double> allMs;
    const int untraced = o.trace ? 2 : 0;
    const Clock::time_point start = Clock::now();
    std::vector<double> cpus;
    for (int i = 0;; ++i) {
        const std::vector<Req> script =
            roundScript(o.seed, i, ckptFile, o.tiny);
        const double c0 = pidCpuSeconds(client->pid());
        rounds.push_back(runRound(*client, script, nextId, nullptr, r, dg));
        cpus.push_back(pidCpuSeconds(client->pid()) - c0);
        allMs.insert(allMs.end(), rounds.back().ms.begin(),
                     rounds.back().ms.end());
        if (o.trace ? i + 1 >= untraced : since(start) >= o.seconds)
            break;
    }
    r.digest = dg.hex();
    r.notes["rounds"] = std::to_string(rounds.size());
    r.notes["cpu_s"] = std::to_string(median(cpus));
    r.notes["request_samples"] = std::to_string(allMs.size());

    std::vector<double> walls, rates, jobCycles;
    for (const RoundLog &rl : rounds) {
        walls.push_back(rl.wallS);
        rates.push_back(rl.simCycles / rl.wallS / 1e6);
        jobCycles.insert(jobCycles.end(), rl.jobCycles.begin(),
                         rl.jobCycles.end());
    }

    if (!o.trace) {
        const double rss = pidPeakRssMb(client->pid());
        r.check(client->shutdown(), "occamy-serve did not exit cleanly");
        r.set("setup_s", median(setup));
        r.set("wall_s", median(walls));
        r.set("sim_mcycles_per_s", median(rates));
        r.set("peak_rss_mb", rss);
        r.set("ok_frac", 1.0 - static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted));
        r.set("request_ms_p50", percentile(allMs, 50));
        r.set("request_ms_p95", percentile(allMs, 95));
        r.set("sim_latency_p95_mcycles", percentile(jobCycles, 95) / 1e6);
        return;
    }

    // --- Per-layer pass: one traced round, then its replay. ---
    std::vector<SpanLog> logs;
    const Clock::time_point epoch = Clock::now();
    logs.reserve(2);
    logs.emplace_back(epoch, 0);
    const std::vector<Req> script =
        roundScript(o.seed, static_cast<int>(rounds.size()), ckptFile, o.tiny);
    const std::uint64_t firstId = nextId;
    const RoundLog traced =
        runRound(*client, script, nextId, &logs[0], r, dg);
    r.check(client->shutdown(), "occamy-serve did not exit cleanly");
    r.set("trace.overhead", traced.wallS / median(walls));

    std::map<std::string, std::vector<double>> byKind;
    double hits = 0, acquires = 0, events = 0;
    auto account = [&](const std::vector<Req> &s, const RoundLog &rl) {
        for (std::size_t i = 0; i < s.size(); ++i) {
            const Reply &rep = rl.replies[i];
            std::string kind = s[i].cmd;
            if (kind == "run" || kind == "load") {
                const bool hit = rep.count("pool_hit") &&
                                 rep.at("pool_hit") == "true";
                hits += hit;
                ++acquires;
                if (kind == "run")
                    kind = hit ? "run_hit" : "run_miss";
            }
            byKind[kind].push_back(rl.ms[i]);
            events += num(rep, "events");
        }
    };
    for (const RoundLog &rl : rounds)
        account(roundScript(o.seed, static_cast<int>(&rl - rounds.data()),
                      ckptFile, o.tiny),
                rl);
    account(script, traced);
    r.set("serve.run_hit_ms_p50", median(byKind["run_hit"]));
    r.set("serve.run_miss_ms_p50", median(byKind["run_miss"]));
    r.set("serve.step_ms_p50", median(byKind["step"]));
    r.set("serve.checkpoint_ms_p50", median(byKind["checkpoint"]));
    r.set("serve.restore_ms_p50", median(byKind["restore"]));
    r.set("serve.load_ms_p50", median(byKind["load"]));
    r.set("serve.pool_hit_frac", acquires > 0 ? hits / acquires : 0.0);
    r.set("obs.events", events);
    double bytes = 0;
    for (const Reply &rep : traced.replies)
        if (rep.count("event") && rep.at("event") == "checkpointed")
            bytes = num(rep, "bytes");
    r.set("ckpt.bytes", bytes);

    // Replay the traced round in-process: the same System calls,
    // without the daemon's JSON, pipes and pool bookkeeping.
    logs.emplace_back(epoch, 1);
    Replayer rp(&logs[1], o.workdir + "/serve_replay.ckpt");
    for (std::size_t i = 0; i < script.size(); ++i)
        rp.play(script[i], firstId + i, traced.replies[i]);
    for (const std::string &m : rp.mismatches)
        r.check(false, m);

    // The replayed compiles are extra work (boot compiles internally),
    // so they leave the replayed total.
    const double replay = sum(spanDurations({logs[1]}, "bench.replay")) -
                          spanSeconds({logs[1]}, "compiler.compile");
    r.set("serve.self_ms", 1e3 * (traced.wallS - replay) /
                               static_cast<double>(script.size()));
    const double save = median(spanDurations(logs, "ckpt.save"));
    r.set("ckpt.save_ms", 1e3 * save);
    r.set("ckpt.restore_ms",
          1e3 * median(spanDurations(logs, "ckpt.restore")));
    r.set("ckpt.save_mb_per_s", save > 0 ? bytes / 1e6 / save : 0.0);
    r.set("compiler.compile_ms", 1e3 * spanSeconds(logs, "compiler.compile"));
    r.set("compiler.programs",
          static_cast<double>(spanDurations(logs, "compiler.compile").size()));
    r.set("traffic.generate_ms",
          1e3 * spanSeconds(logs, "traffic.generate"));

    const double advance = spanSeconds(logs, "sim.advance");
    double cycles = 0, ticked = 0;
    for (const FastForwardStats &ff : rp.ffs) {
        cycles += static_cast<double>(ff.cyclesSimulated);
        ticked += static_cast<double>(ff.cyclesTicked);
    }
    r.set("sim.boot_ms_p50", 1e3 * median(spanDurations(logs, "sim.boot")));
    r.set("sim.advance_s", advance);
    r.set("sim.finalize_ms", 1e3 * spanSeconds(logs, "sim.finalize"));
    r.set("sim.ns_per_cycle", 1e9 * advance / cycles);
    r.set("sim.ns_per_core_cycle", 1e9 * advance / (2 * cycles));
    r.set("sim.ns_per_ticked_cycle", 1e9 * advance / ticked);
    r.set("sim.ff_leverage", cycles / ticked);
    emitSelfTimes(logs, {"compiler", "sim", "traffic", "ckpt"}, r);

    LayerCounts counts;
    for (const RunResult &res : rp.results)
        counts.add(res);
    counts.emit(r);
    const RunResult &tr = rp.trafficResult;
    const traffic::TrafficMetrics m =
        traffic::computeMetrics(tr.trafficJobs, kTrafficTenants, tr.cycles);
    const double arrivals = static_cast<double>(m.arrivals);
    r.set("traffic.arrivals", arrivals);
    r.set("traffic.deferrals", static_cast<double>(m.deferrals));
    r.set("traffic.shed", static_cast<double>(m.shed));
    r.set("traffic.overload_enters", static_cast<double>(tr.overloadEnters));
    r.set("traffic.admit_ratio",
          arrivals > 0 ? static_cast<double>(m.completed) / arrivals : 0.0);
    r.set("traffic.queueing_delay_mean_kcycles", m.queueingDelayMean / 1e3);
    r.set("slo_goodput_frac",
          arrivals > 0 ? static_cast<double>(m.goodput) / arrivals : 0.0);

    const std::string path = o.workdir + "/spans_serve_session.json";
    r.check(writeSpans(logs, path), "cannot write " + path);
    r.notes["spans"] = path;
}

} // namespace perfbench
