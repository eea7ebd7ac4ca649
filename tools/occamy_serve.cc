/**
 * @file
 * occamy-serve: long-lived simulation daemon in the MGSim mold.
 *
 * Speaks newline-delimited JSON on stdin/stdout: each request is one
 * flat JSON object per line ({"cmd":"run","policy":"occamy",...}), each
 * response one JSON object per line, streamed as the work progresses.
 * The daemon keeps a warm pool of pre-booted System instances so a
 * matching "run" request pays zero boot cost (construction, workload
 * compilation, array binding) on the request path — verified through
 * the engine-category SystemBoot event: a pool hit records none after
 * the request arrives.
 *
 * Commands (see README.md for an example session):
 *   hello                       capabilities handshake
 *   pool policy pair [count]    pre-boot count instances into the pool
 *   run  policy pair [...]      run to completion, streaming progress
 *   sweep [pairs] [policy]      multiplex a sweep over the Runner
 *   load policy pair [...]      boot (or take) a stepped session
 *   step [cycles]               advance the session
 *   finalize                    collect the session's result
 *   inspect path                dump live component state (MGSim-style)
 *   paths                       list inspectable component paths
 *   checkpoint file             serialize the session to a file
 *   restore file policy pair    resume a session from a checkpoint
 *   shutdown                    acknowledge and exit cleanly
 *
 * Requests may carry an "id"; it is echoed on every response line the
 * request produces, so a client can multiplex.
 *
 * Overload survival (see DESIGN.md section 16): request lines are
 * bounded (--max-line-bytes; oversized lines get a structured
 * "too_large" error and the stream stays request-aligned), "load" with
 * a "traffic" key opens a multi-tenant traffic session whose admission
 * policy sheds work under overload, requests may carry a "deadline_ms"
 * wall-clock budget (tripping it yields a "busy" error with a
 * retry_after_ms hint instead of an unbounded stall), and
 * --checkpoint-dir/--auto-checkpoint persist the live session every N
 * requests so --recover can resume from the last good checkpoint after
 * a crash, reporting exactly what was lost.
 */

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cliopts.hh"
#include "common/cliopts_lists.hh"
#include "common/json.hh"
#include "obs/events.hh"
#include "obs/sink.hh"
#include "policy/sharing_model.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "sim/system.hh"
#include "traffic/scheduler.hh"
#include "workloads/suite.hh"

using namespace occamy;

namespace
{

// ------------------------------------------------------ flat JSON I/O

using Kv = std::map<std::string, std::string>;

/** Parse one flat JSON object ({"k":"v","n":3,"b":true}) into a
 *  string->raw-value map. Nested arrays/objects are rejected: the
 *  protocol is deliberately flat so clients can be 10-line scripts. */
bool
parseFlat(const std::string &line, Kv &out, std::string &err)
{
    std::size_t i = 0;
    auto skipWs = [&] {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    auto parseString = [&](std::string &s) {
        if (line[i] != '"')
            return false;
        ++i;
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\' && i + 1 < line.size()) {
                ++i;
                switch (line[i]) {
                  case 'n': s.push_back('\n'); break;
                  case 't': s.push_back('\t'); break;
                  case 'r': s.push_back('\r'); break;
                  case '"': s.push_back('"'); break;
                  case '\\': s.push_back('\\'); break;
                  case '/': s.push_back('/'); break;
                  default: return false;    // \uXXXX unsupported.
                }
            } else {
                s.push_back(line[i]);
            }
            ++i;
        }
        if (i >= line.size())
            return false;
        ++i;    // Closing quote.
        return true;
    };

    skipWs();
    if (i >= line.size() || line[i] != '{') {
        err = "expected a JSON object";
        return false;
    }
    ++i;
    skipWs();
    if (i < line.size() && line[i] == '}')
        return true;    // Empty object.
    for (;;) {
        skipWs();
        std::string key;
        if (i >= line.size() || !parseString(key)) {
            err = "expected a string key";
            return false;
        }
        skipWs();
        if (i >= line.size() || line[i] != ':') {
            err = "expected ':' after key \"" + key + "\"";
            return false;
        }
        ++i;
        skipWs();
        std::string val;
        if (i >= line.size()) {
            err = "missing value for \"" + key + "\"";
            return false;
        }
        if (line[i] == '"') {
            if (!parseString(val)) {
                err = "bad string value for \"" + key + "\"";
                return false;
            }
        } else if (line[i] == '{' || line[i] == '[') {
            err = "nested values are not supported (key \"" + key +
                  "\"); the protocol is flat";
            return false;
        } else {
            while (i < line.size() && line[i] != ',' && line[i] != '}' &&
                   !std::isspace(static_cast<unsigned char>(line[i])))
                val.push_back(line[i++]);
            if (val.empty()) {
                err = "missing value for \"" + key + "\"";
                return false;
            }
        }
        out[key] = val;
        skipWs();
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        if (i < line.size() && line[i] == '}')
            return true;
        err = "expected ',' or '}'";
        return false;
    }
}

/** One flat-JSON line of @p m with every value as a string — readable
 *  back through parseFlat, whose output is raw strings anyway. The
 *  sidecar a recovery checkpoint needs to rebuild its System, and the
 *  text of a pool key (poolKey()). */
std::string
kvToJsonLine(const Kv &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(k) + "\":\"" + jsonEscape(v) + "\"";
    }
    return out + "}";
}

/** Incremental one-line JSON response builder. */
class Reply
{
  public:
    explicit Reply(const Kv &req)
    {
        // Echo the client's correlation id, if any.
        const auto it = req.find("id");
        if (it != req.end())
            str("id", it->second);
    }

    Reply &str(const std::string &k, const std::string &v)
    {
        field(k) += "\"" + jsonEscape(v) + "\"";
        return *this;
    }
    Reply &num(const std::string &k, std::uint64_t v)
    {
        field(k) += std::to_string(v);
        return *this;
    }
    Reply &flt(const std::string &k, double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        field(k) += buf;
        return *this;
    }
    Reply &boolean(const std::string &k, bool v)
    {
        field(k) += v ? "true" : "false";
        return *this;
    }

    /** Emit the line and flush: the client reads responses live. */
    void send() const
    {
        std::fputs(("{" + body_ + "}\n").c_str(), stdout);
        std::fflush(stdout);
    }

  private:
    std::string &field(const std::string &k)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + jsonEscape(k) + "\":";
        return body_;
    }
    std::string body_;
};

/** Structured error line. Every error carries a machine-readable
 *  "code" ("error" for generic failures; "too_large", "busy",
 *  "recover_failed" for the conditions a client is expected to handle
 *  programmatically). A non-negative @p retry_after_ms adds the
 *  back-off hint that accompanies "busy". */
void
sendError(const Kv &req, const std::string &msg,
          const std::string &code = "error",
          std::int64_t retry_after_ms = -1)
{
    Reply r(req);
    r.boolean("ok", false)
        .str("event", "error")
        .str("code", code)
        .str("error", msg);
    if (retry_after_ms >= 0)
        r.num("retry_after_ms",
              static_cast<std::uint64_t>(retry_after_ms));
    r.send();
}

// ------------------------------------------------- request -> job spec

std::string
getStr(const Kv &m, const std::string &k, const std::string &dflt = "")
{
    const auto it = m.find(k);
    return it == m.end() ? dflt : it->second;
}

/** A request's simulation keys: the run keys every front end shares
 *  (runner::addRunKeys) plus the keys serve resolves into the policy and
 *  the workloads itself. */
struct SimKeys
{
    runner::RunKeys run;
    std::string policy = "occamy";
    std::string pair = "6+16";
    std::string batch;
};

/** The config-key table: one entry per request key makeEntry honors.
 *  The NDJSON key "max_cycles" is the flag --max-cycles, with the
 *  identical validation and error messages. */
cliopts::OptionSet
simKeyOptions(SimKeys &s)
{
    cliopts::OptionSet set("occamy-serve", "simulation request keys");
    runner::JobSpec &j = s.run.tmpl;
    set.value("policy", &s.policy, "P", "sharing policy name")
        .value("pair", &s.pair, "A+B", "workload ids for core0+core1")
        .value("batch", &s.batch, "L", "comma-separated workload list")
        .value("checkpoint-out", &j.checkpointOut, "F",
               "periodic checkpoint file")
        .value("trace-capacity", &j.traceCapacity, "N",
               "most events the ring keeps; the capacity reserves\n"
               "address space, and resident memory grows with the\n"
               "events actually recorded", 1)
        .value("slo-cycles", &j.traffic.sloCycles, "N",
               "per-job SLO budget")
        .value("scheduler", &j.traffic.scheduler, "S",
               "dispatch discipline");
    return runner::addRunKeys(set, s.run, runner::kTrafficKeys);
}

/** Apply the keys of @p m that @p set knows; the rest (cmd, id, file,
 *  ...) pass through untouched. A bad value throws with the table's
 *  error message, which names the key. */
void
applyKeys(const cliopts::OptionSet &set, const Kv &m)
{
    for (const auto &[k, v] : m) {
        std::string err;
        if (set.has(k) && !set.set(k, v, err))
            throw std::runtime_error(err);
    }
}

/** Parse a request's config keys. */
SimKeys
parseKeys(const Kv &m)
{
    SimKeys s;
    applyKeys(simKeyOptions(s), m);
    return s;
}

/** The numeric request keys outside the config table, validated by
 *  the same parsers. */
struct RequestArgs
{
    std::uint64_t cycles = 100'000;         ///< step
    std::uint64_t count = 1;                ///< pool
    std::uint64_t progressEvery = 2'000'000; ///< run, finalize
    std::uint64_t deadlineMs = 0;           ///< run, finalize; 0 = none
    unsigned jobs = 0;                      ///< sweep; 0 = default
};

RequestArgs
parseArgs(const Kv &m)
{
    RequestArgs a;
    cliopts::OptionSet set("occamy-serve", "request keys");
    set.value("cycles", &a.cycles, "N", "cycles to step")
        .value("count", &a.count, "N", "instances to pool")
        .value("progress-every", &a.progressEvery, "N", "progress period")
        .value("deadline-ms", &a.deadlineMs, "MS", "wall-clock budget")
        .value("jobs", &a.jobs, "N", "sweep worker threads");
    applyKeys(set, m);
    return a;
}

/** Pool identity of a request: its own simulation keys, every key
 *  the config table accepts ('_' read as '-') except sim_threads, an
 *  engine knob that never changes results. A pooled instance serves a
 *  request iff the keys match exactly, so no key the table accepts can
 *  be left out; two spellings of one value (a default given or left
 *  out) only miss each other and cost a boot. A bad value throws, as
 *  in makeEntry. */
std::string
poolKey(const Kv &m)
{
    SimKeys s;
    const cliopts::OptionSet table = simKeyOptions(s);
    applyKeys(table, m);
    Kv sim;
    for (const auto &[k, v] : m) {
        const std::string key = cliopts::canonicalKey(k);
        if (table.has(key) && key != "sim-threads")
            sim[key] = v;
    }
    return kvToJsonLine(sim);
}

/** One booted simulation the daemon holds: a pooled instance or the
 *  stepped session. */
struct SimEntry
{
    SimEntry(std::string key, const runner::JobSpec &spec)
        : key(std::move(key)), label(spec.label), job(spec)
    {
    }

    /** Boot, or restore from @p ckpt, and count the SystemBoot events
     *  the sink holds now, without taking them: a run that wraps the
     *  ring later must neither lose the count nor change `events`. */
    void boot(std::istream *ckpt = nullptr)
    {
        job.boot(ckpt);
        boots = 0;
        for (const obs::Event &ev : job.sink()->snapshot().events)
            boots += ev.kind == obs::EventKind::SystemBoot;
    }

    std::string key;            ///< Pool identity (see poolKey()).
    std::string label;
    runner::Job job;
    /** SystemBoot events recorded and not yet reported or drained. */
    std::uint64_t boots = 0;
};

/** Build a SimEntry from request params; boots unless told not to
 *  (restore boots through Job::boot(&checkpoint) instead). The request
 *  resolves into a JobSpec here; runner::Job sets it up exactly as a
 *  runner job. Throws on bad params. */
std::unique_ptr<SimEntry>
makeEntry(const Kv &m, bool boot)
{
    const SimKeys s = parseKeys(m);
    runner::JobSpec spec = s.run.tmpl;
    const policy::SharingModel *model = policy::modelByName(s.policy);
    if (!model)
        throw std::runtime_error("unknown policy: " + s.policy +
                                 " (see hello's policy list)");
    spec.cfg = s.run.machine(model->id());
    if (spec.traffic.enabled()) {
        // Traffic session: the workload is a generated multi-tenant
        // arrival stream; the pair/batch keys are ignored.
        if (!traffic::dispatcherByName(spec.traffic.scheduler))
            throw std::runtime_error("unknown scheduler: " +
                                     spec.traffic.scheduler);
        spec.label = spec.traffic.process + "/" + model->key() + "/" +
                     spec.traffic.scheduler;
    } else {
        const auto [w0, w1] = cliopts::lookupPair(s.pair);
        spec.workloads.emplace_back(w0.name, w0.loops);
        if (spec.cfg.numCores > 1)
            spec.workloads.emplace_back(w1.name, w1.loops);
        for (const std::string &token : cliopts::splitCommas(s.batch)) {
            const workloads::Workload w = cliopts::lookupWorkload(token);
            spec.batch.emplace_back(w.name, w.loops);
        }
        spec.label = s.pair + "/" + model->key();
    }
    // Engine events always on: SystemBoot is the warm-pool proof and
    // CheckpointSave/Restore narrate the session. "trace_events" adds
    // simulated-hardware categories on top.
    spec.traceEvents = obs::kEvEngine;
    if (!s.run.traceEvents.empty())
        spec.traceEvents |= obs::parseEventMask(s.run.traceEvents);

    auto e = std::make_unique<SimEntry>(poolKey(m), spec);
    if (boot)
        e->boot();
    return e;
}

// ------------------------------------------------------------- daemon

struct Daemon
{
    /** Warm pool: booted instances awaiting a matching run request. */
    std::vector<std::unique_ptr<SimEntry>> pool;
    /** The stepped session (load/step/inspect/checkpoint/restore). */
    std::unique_ptr<SimEntry> session;

    // Crash-recovery state (--checkpoint-dir / --auto-checkpoint /
    // --recover). The request Kv that created the live session is kept
    // so a recovery checkpoint can be rebuilt without the client:
    // System::restoreCheckpoint needs a same-config System first.
    std::string ckptDir;        ///< "" = auto-checkpointing off.
    std::uint64_t autoEvery = 0; ///< Checkpoint every N requests.
    std::uint64_t handled = 0;  ///< Successfully handled requests.
    std::uint64_t ckptSeq = 0;  ///< Monotonic auto-checkpoint number.
    Kv sessionSpec;             ///< Request that built `session`.

    /** Take a pool entry matching @p key, or null. */
    std::unique_ptr<SimEntry> takePooled(const std::string &key)
    {
        for (auto it = pool.begin(); it != pool.end(); ++it) {
            if ((*it)->key == key) {
                auto e = std::move(*it);
                pool.erase(it);
                return e;
            }
        }
        return nullptr;
    }
};

/**
 * Persist the live session: <dir>/auto-<seq>.ckpt (binary state) plus
 * <dir>/auto-<seq>.json (the creating request, so recovery can rebuild
 * the System) and finally <dir>/LATEST naming the pair — written to a
 * temp file and renamed, so a crash mid-checkpoint leaves the previous
 * LATEST intact and recovery always sees a complete checkpoint.
 */
void
autoCheckpoint(Daemon &d)
{
    if (!d.session || !d.session->job.sys().booted() ||
        d.ckptDir.empty())
        return;
    const std::string base = "auto-" + std::to_string(d.ckptSeq++);
    const std::string ckpt = d.ckptDir + "/" + base + ".ckpt";
    const std::string meta = d.ckptDir + "/" + base + ".json";
    {
        std::ofstream os(ckpt, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("auto-checkpoint: cannot open " +
                                     ckpt);
        d.session->job.sys().saveCheckpoint(os);
    }
    {
        std::ofstream os(meta, std::ios::trunc);
        if (!os)
            throw std::runtime_error("auto-checkpoint: cannot open " +
                                     meta);
        os << kvToJsonLine(d.sessionSpec) << "\n";
    }
    const std::string latest = d.ckptDir + "/LATEST";
    const std::string tmp = latest + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            throw std::runtime_error("auto-checkpoint: cannot open " +
                                     tmp);
        os << base << "\n";
    }
    if (std::rename(tmp.c_str(), latest.c_str()) != 0)
        throw std::runtime_error("auto-checkpoint: cannot rename " +
                                 tmp);
    Reply r{Kv{}};
    r.boolean("ok", true)
        .str("event", "auto_checkpoint")
        .str("file", ckpt)
        .num("cycle", d.session->job.sys().now())
        .num("after_requests", d.handled);
    r.send();
}

/**
 * Resume the session a crashed daemon left behind: read <dir>/LATEST,
 * rebuild the System from the recorded request, restore the state and
 * report — honestly — that everything handled after that checkpoint
 * was lost. Any failure degrades to a structured "recover_failed"
 * error and a fresh daemon; recovery never crashes the restart.
 */
void
recoverSession(Daemon &d, const std::string &dir)
{
    try {
        std::string base;
        {
            std::ifstream is(dir + "/LATEST");
            if (!is || !std::getline(is, base) || base.empty())
                throw std::runtime_error("no readable " + dir +
                                         "/LATEST (nothing to recover)");
        }
        const std::string meta = dir + "/" + base + ".json";
        const std::string ckpt = dir + "/" + base + ".ckpt";
        std::string line;
        {
            std::ifstream is(meta);
            if (!is || !std::getline(is, line))
                throw std::runtime_error("cannot read " + meta);
        }
        Kv spec;
        std::string perr;
        if (!parseFlat(line, spec, perr))
            throw std::runtime_error("bad metadata in " + meta + ": " +
                                     perr);
        auto e = makeEntry(spec, /*boot=*/false);
        std::ifstream is(ckpt, std::ios::binary);
        if (!is)
            throw std::runtime_error("cannot open " + ckpt);
        e->boot(&is);
        d.session = std::move(e);
        d.sessionSpec = spec;
        Reply r{Kv{}};
        r.boolean("ok", true)
            .str("event", "recovered")
            .str("file", ckpt)
            .str("label", d.session->label)
            .num("cycle", d.session->job.sys().now())
            // The honest loss statement: state up to this cycle is
            // back; every request handled after the checkpoint was
            // written is gone and must be replayed by the client.
            .str("lost", "all requests handled after " + ckpt +
                             " was written");
        r.send();
    } catch (const std::exception &ex) {
        d.session.reset();
        d.sessionSpec.clear();
        sendError({}, std::string("recovery failed, starting fresh: ") +
                          ex.what(),
                  "recover_failed");
    }
}

void
cmdHello(Daemon &, const Kv &req)
{
    std::string policies;
    for (const policy::SharingModel *m : policy::allModels()) {
        if (!policies.empty())
            policies += ",";
        policies += m->key();
    }
    Reply r(req);
    r.boolean("ok", true)
        .str("event", "hello")
        .str("name", "occamy-serve")
        .num("proto", 1)
        .str("policies", policies);
    r.send();
}

void
cmdPool(Daemon &d, const Kv &req)
{
    const std::uint64_t count = parseArgs(req).count;
    const std::string key = poolKey(req);
    for (std::uint64_t i = 0; i < count; ++i) {
        auto e = makeEntry(req, /*boot=*/true);
        if (e->boots != 1)
            throw std::runtime_error("pool boot produced no SystemBoot "
                                     "event (engine tracing broken?)");
        // Drain boot-time events now: anything the sink catches later
        // happened on a request path.
        e->job.sink()->clear();
        e->boots = 0;
        d.pool.push_back(std::move(e));
    }
    Reply r(req);
    r.boolean("ok", true)
        .str("event", "pooled")
        .str("key", key)
        .num("count", count)
        .num("pool_size", d.pool.size());
    r.send();
}

/** Acquire an instance for run/load: pool hit or inline boot. */
std::unique_ptr<SimEntry>
acquire(Daemon &d, const Kv &req, bool &pool_hit)
{
    auto e = d.takePooled(poolKey(req));
    pool_hit = e != nullptr;
    if (!e) {
        e = makeEntry(req, /*boot=*/true);
        // Inline boot happened on the request path; keep its SystemBoot
        // event in the sink so the done/loaded reply counts it.
    }
    return e;
}

/** Stream progress while advancing to completion; shared by run and
 *  the finishing step of a session. A request-supplied "deadline_ms"
 *  bounds the wall clock spent: when it trips, advancing stops at the
 *  current cycle boundary and false comes back — the caller turns that
 *  into a structured "busy" error (the session keeps its progress, so
 *  a client may simply retry). 0 / absent = no deadline. */
bool
streamToCompletion(SimEntry &e, const Kv &req, const RequestArgs &args)
{
    const Cycle chunk = std::max<Cycle>(args.progressEvery, 1);
    const std::uint64_t deadline_ms = args.deadlineMs;
    const auto t0 = std::chrono::steady_clock::now();
    while (!e.job.sys().advance(e.job.sys().now() + chunk)) {
        if (deadline_ms) {
            const double elapsed =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (elapsed > static_cast<double>(deadline_ms))
                return false;
        }
        Reply p(req);
        p.boolean("ok", true)
            .str("event", "progress")
            .str("label", e.label)
            .num("cycle", e.job.sys().now());
        p.send();
    }
    return true;
}

void
sendRunSummary(const Kv &req, SimEntry &e, const RunResult &res,
               bool pool_hit, const char *event)
{
    const obs::TraceBuffer tb = e.job.sink()->take();
    Reply r(req);
    r.boolean("ok", true)
        .str("event", event)
        .str("label", e.label)
        .boolean("pool_hit", pool_hit)
        // The warm-pool contract, made measurable: SystemBoot engine
        // events recorded since the request arrived. 0 on a pool hit
        // (the boot happened at pool-fill time), 1 on an inline boot.
        .num("boot_events_on_request_path", e.boots)
        .num("cycles", res.cycles)
        .flt("simd_util", res.simdUtil)
        .num("vl_switches", res.vlSwitches)
        .num("plans_made", res.plansMade)
        .num("watchdog_trips", res.watchdogTrips)
        .num("lane_faults", res.laneFaults)
        .boolean("timed_out", res.timedOut)
        .num("cycles_ticked", e.job.ff().cyclesTicked)
        .num("cycles_simulated", e.job.ff().cyclesSimulated)
        .num("events", tb.events.size());
    if (e.job.hasTraffic())
        r.num("traffic_jobs", res.trafficJobs.size());
    if (e.job.hasAdmission())
        r.num("jobs_shed", res.jobsShed)
            .num("job_deferrals", res.jobDeferrals)
            .num("overload_enters", res.overloadEnters);
    r.send();
}

void
cmdRun(Daemon &d, const Kv &req)
{
    // Self-protection under overload: while the live traffic session's
    // admission controller reports overload, new run requests (which
    // would boot and execute a whole extra simulation inline) are
    // refused with a back-off hint instead of queued behind the storm.
    if (d.session && d.session->job.sys().booted() &&
        d.session->job.sys().overloaded()) {
        sendError(req,
                  "daemon overloaded (live traffic session is "
                  "shedding); retry later",
                  "busy", 100);
        return;
    }
    const RequestArgs args = parseArgs(req);
    bool pool_hit = false;
    auto e = acquire(d, req, pool_hit);
    if (!streamToCompletion(*e, req, args)) {
        // Deadline tripped mid-run: the one-shot run is abandoned.
        sendError(req,
                  "deadline_ms exceeded at cycle " +
                      std::to_string(e->job.sys().now()) +
                      " before completion",
                  "busy", static_cast<std::int64_t>(args.deadlineMs));
        return;
    }
    const RunResult res = e->job.sys().finalize();
    sendRunSummary(req, *e, res, pool_hit, "done");
}

void
cmdSweep(Daemon &, const Kv &req)
{
    const std::vector<workloads::Pair> pairs =
        runner::selectPairs(getStr(req, "pairs", "spec"));

    std::vector<SharingPolicy> policies;
    const std::string pol = getStr(req, "policy", "all");
    if (pol == "all") {
        for (const policy::SharingModel *m : policy::allModels())
            policies.push_back(m->id());
    } else if (const policy::SharingModel *m = policy::modelByName(pol)) {
        policies.push_back(m->id());
    } else {
        throw std::runtime_error("unknown policy: " + pol);
    }

    // Every job is a copy of the request's JobSpec on the request's
    // machine shape; jobs cannot share one checkpoint file, so
    // checkpoint_out stays a session key.
    const SimKeys s = parseKeys(req);
    runner::JobSpec tmpl = s.run.tmpl;
    tmpl.cfg = s.run.machine(SharingPolicy::Elastic);
    tmpl.checkpointOut.clear();
    auto jobs = runner::pairSweepJobs(tmpl, pairs, policies);

    runner::RunnerOptions ropt;
    ropt.numThreads = parseArgs(req).jobs;
    // Progress callbacks land on this (coordinating) thread, so the
    // NDJSON stream stays well-formed.
    ropt.onProgress = [&req](const runner::Progress &p) {
        Reply r(req);
        r.boolean("ok", true)
            .str("event", "sweep_progress")
            .num("done", p.done)
            .num("total", p.total)
            .num("running", p.running)
            .num("failed", p.failed);
        r.send();
    };

    const runner::SweepResult sweep =
        runner::Runner(ropt).run(std::move(jobs));
    for (const runner::JobResult &j : sweep.jobs) {
        Reply r(req);
        r.boolean("ok", true)
            .str("event", "job")
            .num("job_id", j.id)
            .str("label", j.label)
            .str("status", runner::jobStatusName(j.status))
            .num("cycles", j.result.cycles)
            .flt("simd_util", j.result.simdUtil);
        if (!j.ok())
            r.str("error", j.error);
        r.send();
    }
    Reply r(req);
    r.boolean("ok", true)
        .str("event", "sweep_done")
        .num("jobs", sweep.jobs.size())
        .num("failed", sweep.failed());
    r.send();
}

void
cmdLoad(Daemon &d, const Kv &req)
{
    bool pool_hit = false;
    d.session = acquire(d, req, pool_hit);
    d.sessionSpec = req;
    d.sessionSpec.erase("id");
    d.session->job.sink()->clear();
    Reply r(req);
    r.boolean("ok", true)
        .str("event", "loaded")
        .str("label", d.session->label)
        .boolean("pool_hit", pool_hit)
        .num("boot_events_on_request_path", d.session->boots)
        .num("cycle", d.session->job.sys().now());
    r.send();
    d.session->boots = 0;
}

SimEntry &
needSession(Daemon &d)
{
    if (!d.session || !d.session->job.sys().booted())
        throw std::runtime_error("no live session (use load or restore "
                                 "first)");
    return *d.session;
}

void
cmdStep(Daemon &d, const Kv &req)
{
    const Cycle cycles = parseArgs(req).cycles;
    SimEntry &e = needSession(d);
    const bool finished = e.job.sys().advance(e.job.sys().now() + cycles);
    Reply r(req);
    r.boolean("ok", true)
        .str("event", "stepped")
        .num("cycle", e.job.sys().now())
        .boolean("finished", finished);
    // Live overload telemetry for traffic sessions, so a client can
    // throttle itself before its requests start bouncing with "busy".
    if (e.job.hasAdmission())
        r.boolean("overloaded", e.job.sys().overloaded());
    r.send();
}

void
cmdFinalize(Daemon &d, const Kv &req)
{
    const RequestArgs args = parseArgs(req);
    SimEntry &e = needSession(d);
    if (!streamToCompletion(e, req, args)) {
        // The session keeps its progress; the client may finalize
        // again (possibly with a larger deadline).
        sendError(req,
                  "deadline_ms exceeded at cycle " +
                      std::to_string(e.job.sys().now()) +
                      "; session kept, retry finalize",
                  "busy", static_cast<std::int64_t>(args.deadlineMs));
        return;
    }
    const RunResult res = e.job.sys().finalize();
    sendRunSummary(req, e, res, false, "finalized");
    d.session.reset();
}

void
cmdInspect(Daemon &d, const Kv &req)
{
    SimEntry &e = needSession(d);
    const std::string path = getStr(req, "path", "system");
    Reply r(req);
    r.boolean("ok", true)
        .str("event", "inspect")
        .str("path", path)
        .num("cycle", e.job.sys().now())
        .str("state", e.job.sys().inspect(path));
    r.send();
}

void
cmdPaths(Daemon &d, const Kv &req)
{
    SimEntry &e = needSession(d);
    std::string joined;
    for (const std::string &p : e.job.sys().componentPaths()) {
        if (!joined.empty())
            joined += ",";
        joined += p;
    }
    Reply r(req);
    r.boolean("ok", true).str("event", "paths").str("paths", joined);
    r.send();
}

void
cmdCheckpoint(Daemon &d, const Kv &req)
{
    SimEntry &e = needSession(d);
    const std::string file = getStr(req, "file");
    if (file.empty())
        throw std::runtime_error("checkpoint needs \"file\"");
    std::ofstream os(file, std::ios::binary | std::ios::trunc);
    if (!os)
        throw std::runtime_error("cannot open " + file);
    e.job.sys().saveCheckpoint(os);
    const std::uint64_t bytes = static_cast<std::uint64_t>(os.tellp());
    os.close();
    Reply r(req);
    r.boolean("ok", true)
        .str("event", "checkpointed")
        .str("file", file)
        .num("cycle", e.job.sys().now())
        .num("bytes", bytes);
    r.send();
}

void
cmdRestore(Daemon &d, const Kv &req)
{
    const std::string file = getStr(req, "file");
    if (file.empty())
        throw std::runtime_error("restore needs \"file\"");
    std::ifstream is(file, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot open " + file);
    auto e = makeEntry(req, /*boot=*/false);
    e->boot(&is);
    d.session = std::move(e);
    d.sessionSpec = req;
    d.sessionSpec.erase("id");
    Reply r(req);
    r.boolean("ok", true)
        .str("event", "restored")
        .str("file", file)
        .str("label", d.session->label)
        .num("cycle", d.session->job.sys().now());
    r.send();
}

/**
 * Read one newline-terminated request of at most @p max bytes into
 * @p line. @return 0 at EOF with nothing read, 1 on a complete line,
 * 2 when the line exceeded the bound — the remainder of the physical
 * line is consumed, so the stream stays aligned on request boundaries
 * and the next read starts at the next request.
 */
int
readBoundedLine(std::istream &in, std::string &line, std::size_t max)
{
    line.clear();
    int c;
    bool any = false;
    while ((c = in.get()) != std::char_traits<char>::eof()) {
        any = true;
        if (c == '\n')
            return 1;
        if (line.size() >= max) {
            while ((c = in.get()) != std::char_traits<char>::eof() &&
                   c != '\n') {
            }
            return 2;
        }
        line.push_back(static_cast<char>(c));
    }
    return any ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t maxLineBytes = 1u << 20;
    std::string ckptDir;
    std::uint64_t autoEvery = 8;
    std::string recoverDir;

    cliopts::OptionSet cli("occamy-serve",
                           "NDJSON simulation daemon on stdin/stdout");
    cli.value("max-line-bytes", &maxLineBytes, "N",
              "reject request lines longer than N bytes with a\n"
              "structured too_large error (default 1 MiB)", 1)
        .value("checkpoint-dir", &ckptDir, "DIR",
               "auto-checkpoint the live session into DIR (created\n"
               "if missing) every --auto-checkpoint requests")
        .value("auto-checkpoint", &autoEvery, "N",
               "auto-checkpoint period in handled requests\n"
               "(default 8; needs --checkpoint-dir)", 1)
        .value("recover", &recoverDir, "DIR",
               "on startup, restore the last good auto-checkpoint\n"
               "from DIR (implies --checkpoint-dir DIR unless given)");
    const cliopts::ParseResult pr = cli.parse(argc, argv);
    if (pr.status == cliopts::Status::Exit)
        return pr.exitCode;
    if (pr.status == cliopts::Status::Error) {
        std::fprintf(stderr, "%s\n", pr.error.c_str());
        cli.printHelp(stderr);
        return 2;
    }

    Daemon d;
    if (!recoverDir.empty() && ckptDir.empty())
        ckptDir = recoverDir;
    d.ckptDir = ckptDir;
    d.autoEvery = ckptDir.empty() ? 0 : autoEvery;
    if (!ckptDir.empty()) {
        // Best-effort: a dir that still cannot be written surfaces as
        // a contained structured error on the first auto-checkpoint.
        std::error_code ec;
        std::filesystem::create_directories(ckptDir, ec);
    }
    if (!recoverDir.empty())
        recoverSession(d, recoverDir);

    std::string line;
    int got;
    while ((got = readBoundedLine(std::cin, line,
                                  static_cast<std::size_t>(
                                      maxLineBytes))) != 0) {
        if (got == 2) {
            sendError({}, "request line exceeds " +
                              std::to_string(maxLineBytes) +
                              " bytes (--max-line-bytes); line dropped",
                      "too_large");
            continue;
        }
        if (line.empty())
            continue;
        Kv req;
        std::string perr;
        if (!parseFlat(line, req, perr)) {
            sendError({}, "parse error: " + perr);
            continue;
        }
        const std::string cmd = getStr(req, "cmd");
        try {
            if (cmd == "hello") {
                cmdHello(d, req);
            } else if (cmd == "pool") {
                cmdPool(d, req);
            } else if (cmd == "run") {
                cmdRun(d, req);
            } else if (cmd == "sweep") {
                cmdSweep(d, req);
            } else if (cmd == "load") {
                cmdLoad(d, req);
            } else if (cmd == "step") {
                cmdStep(d, req);
            } else if (cmd == "finalize") {
                cmdFinalize(d, req);
            } else if (cmd == "inspect") {
                cmdInspect(d, req);
            } else if (cmd == "paths") {
                cmdPaths(d, req);
            } else if (cmd == "checkpoint") {
                cmdCheckpoint(d, req);
            } else if (cmd == "restore") {
                cmdRestore(d, req);
            } else if (cmd == "shutdown") {
                Reply r(req);
                r.boolean("ok", true).str("event", "bye");
                r.send();
                return 0;
            } else {
                sendError(req, "unknown cmd: \"" + cmd + "\"");
            }
        } catch (const std::exception &ex) {
            sendError(req, ex.what());
        }
        // Crash-recovery heartbeat: persist the live session every N
        // handled requests. A checkpoint failure is reported but never
        // takes the daemon down — serving beats checkpointing.
        ++d.handled;
        if (d.autoEvery && d.handled % d.autoEvery == 0) {
            try {
                autoCheckpoint(d);
            } catch (const std::exception &ex) {
                sendError({}, std::string("auto-checkpoint failed: ") +
                                  ex.what());
            }
        }
    }
    // EOF without shutdown: still a clean exit (client hung up).
    return 0;
}
