#include "sim/system.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/ckpt.hh"
#include "sim/coordinator.hh"

namespace occamy
{

System::System(MachineConfig cfg) : cfg_(std::move(cfg))
{
    names_.resize(cfg_.numCores);
    loops_.resize(cfg_.numCores);
}

System::~System() = default;

void
System::setWorkload(CoreId core, std::string name,
                    std::vector<kir::Loop> loops)
{
    names_.at(core) = std::move(name);
    loops_.at(core) = std::move(loops);
}

void
System::enqueueWorkload(std::string name, std::vector<kir::Loop> loops)
{
    // Plain entry: available at cycle 0, its own workload class.
    traffic::Arrival m;
    m.workload = name;
    queue_meta_.push_back(std::move(m));
    queue_.emplace_back(std::move(name), std::move(loops));
}

void
System::enqueueArrival(const traffic::Arrival &a)
{
    // The loops live in queue_ only; the metadata copy drops them.
    traffic::Arrival &m = queue_meta_.emplace_back(a);
    queue_.emplace_back(m.workload, std::exchange(m.loops, {}));
    has_traffic_ = true;
}

void
System::boot(const RunOptions &opt)
{
    co_ = std::make_unique<Coordinator>(*this, opt);
}

Cycle
System::now() const
{
    return co_ ? co_->now : 0;
}

bool
System::finished() const
{
    return co_ && co_->complete;
}

bool
System::overloaded() const
{
    return co_ && co_->traffic && co_->traffic->overloaded();
}

bool
System::advance(Cycle stop_at)
{
    if (!co_)
        throw std::logic_error("System::advance: boot() first");
    return co_->advance(stop_at);
}

RunResult
System::finalize()
{
    if (!co_)
        throw std::logic_error("System::finalize: boot() first");
    Coordinator &x = *co_;
    RunResult &result = x.result;

    // A wall-clock kill stops at the top of `now`, before ticking it.
    result.timedOut = x.now >= x.opt.maxCycles;
    x.ff.cyclesSimulated = result.timedOut     ? x.opt.maxCycles
                           : result.wallKilled ? x.now
                                               : x.now + 1;
    if (x.opt.ffStats)
        *x.opt.ffStats = x.ff;
    // A run that hit its cap or was killed reports the cycles it
    // covered, not the last completion before the cut.
    const bool cut = result.timedOut || result.wallKilled;
    result.cycles =
        std::max<Cycle>(cut ? x.ff.cyclesSimulated : x.last_finish, 1);
    // Each engine accumulated its own share of the busy-lane integral
    // during the (possibly parallel) tick phases; summing the shares
    // in cluster-id order makes the total independent of the thread
    // count, and on a flat machine it IS the single old accumulator.
    double busy_integral = 0.0;
    for (const auto &eng : x.engines)
        busy_integral += eng->busyIntegral();
    result.simdUtil =
        busy_integral / (static_cast<double>(x.total_lanes) *
                         static_cast<double>(result.cycles));

    for (unsigned c = 0; c < x.cfg.numCores; ++c) {
        CoreRunResult &cr = result.cores[c];
        const ScalarCore &core = x.core(c);
        const CoProcessor &cp = x.eng(c).coproc();
        cr.workload = names_[c];
        cr.finish = x.finish[c];
        cr.computeIssued = cp.computeIssued(x.lc(c));
        cr.memIssued = cp.memIssued(x.lc(c));
        cr.renameRegStallCycles = cp.renameRegStallCycles(x.lc(c));
        cr.monitorInsts = core.monitorInsts();
        cr.reconfigWaitCycles = core.reconfigWaitCycles();
        cr.reconfigEvents = core.reconfigEvents();
        cr.reinitInsts = core.reinitInsts();

        // A cut run's unfinished cores close their open phase there.
        const Cycle open_end =
            cut && !x.done[c] ? result.cycles : x.finish[c];
        for (const PhaseTrace &t : core.phases()) {
            PhaseResult pr;
            pr.name = t.name;
            pr.start = t.start;
            pr.end = t.end ? t.end : open_end;
            pr.firstVl = t.firstVl;
            pr.lastVl = t.lastVl;
            pr.computeIssued =
                cp.computeIssuedInPhase(x.lc(c), t.phaseId);
            const Cycle span = pr.end > pr.start ? pr.end - pr.start : 1;
            pr.issueRate = static_cast<double>(pr.computeIssued) /
                           static_cast<double>(span);
            cr.phases.push_back(pr);
        }

        const auto &busy_bk = x.eng(c).busyBuckets(x.lc(c));
        const auto &alloc_bk = x.eng(c).allocBuckets(x.lc(c));
        for (std::size_t b = 0; b < busy_bk.size(); ++b) {
            cr.busyLanesTimeline.push_back(busy_bk[b] / kTimelineBucket);
            cr.allocLanesTimeline.push_back(alloc_bk[b] / kTimelineBucket);
        }
    }

    for (const auto &eng : x.engines) {
        result.dramBytes += eng->mem().dramBytes();
        result.vlSwitches += eng->coproc().vlSwitches();
        result.plansMade += eng->coproc().plansMade();
        result.laneFaults += eng->coproc().laneFaults();
    }
    result.watchdogTrips = x.watchdog_trips;

    // Per-cluster records and arbiter accounting: clustered machines
    // only, so flat-machine results (and everything exported from
    // them) are unchanged.
    if (x.ncl > 1) {
        result.arbiterRebalances = x.arbiter->rebalances();
        result.clusters.resize(x.ncl);
        for (unsigned k = 0; k < x.ncl; ++k) {
            ClusterRunResult &cr = result.clusters[k];
            cr.cluster = k;
            cr.dramBytes = x.engines[k]->mem().dramBytes();
            cr.vlSwitches = x.engines[k]->coproc().vlSwitches();
            cr.plansMade = x.engines[k]->coproc().plansMade();
            cr.dramShareBpc = x.arbiter->shares()[k];
            cr.avgDramShareBpc = x.arbiter->avgShare(k, result.cycles);
            cr.migratedIn = x.arbiter->migratedIn(k);
            cr.migratedOut = x.arbiter->migratedOut(k);
        }
    }

    if (x.traffic) {
        result.trafficJobs = x.traffic->records();
        result.sloViolations = x.traffic->sloViolations();
        result.jobsShed = x.traffic->jobsShed();
        result.jobDeferrals = x.traffic->jobDeferrals();
        result.overloadEnters = x.traffic->overloadEnters();
    }

    // gem5-style stats dump (same groups the snapshots sampled).
    {
        std::ostringstream os;
        for (const auto &eng : x.engines) {
            eng->memGroup().dump(os);
            eng->cpGroup().dump(os);
        }
        stats::Group run_group("system.run");
        run_group.addFormula(
            "watchdog_trips",
            [&] { return static_cast<double>(x.watchdog_trips); },
            "livelock-watchdog scalar-fallback escalations");
        run_group.addFormula(
            "lane_faults",
            [&] { return static_cast<double>(result.laneFaults); },
            "ExeBU hard faults applied");
        if (x.ncl > 1) {
            const double reb =
                static_cast<double>(x.arbiter->rebalances());
            const double mig =
                static_cast<double>(x.arbiter->migrations());
            run_group.addFormula(
                "arbiter_rebalances", [reb] { return reb; },
                "inter-cluster bandwidth rebalances published");
            run_group.addFormula(
                "cluster_migrations", [mig] { return mig; },
                "queued workloads adopted across clusters");
        }
        if (x.traffic)
            x.traffic->regStats(run_group);
        run_group.dump(os);
        result.statsText = os.str();
    }

    RunResult out = std::move(x.result);
    co_.reset();
    return out;
}

RunResult
System::run(const RunOptions &opt)
{
    boot(opt);
    advance(kCycleNever);
    return finalize();
}

// ------------------------------------------------------- checkpointing

namespace
{

/** Digest helper: loop structure, not the full expression trees — the
 *  suite builds loops deterministically from names, so name + shape is
 *  what distinguishes two workload sets in practice. */
void
describeLoops(std::ostream &os, const std::vector<kir::Loop> &loops)
{
    for (const kir::Loop &l : loops) {
        os << l.name << ';' << l.trip << ';' << l.stores.size() << ';'
           << (l.reduction ? 1 : 0) << ';';
        for (const kir::ArrayDecl &a : l.arrays)
            os << a.name << ',' << a.elems << ','
               << static_cast<unsigned>(a.elemBytes) << ','
               << (a.streaming ? 1 : 0) << ';';
        os << '|';
    }
}

void
describeCache(std::ostream &os, const CacheConfig &c)
{
    os << c.sizeBytes << ',' << c.assoc << ',' << c.lineBytes << ','
       << c.latency << ',' << c.bytesPerCycle << '|';
}

} // namespace

std::uint64_t
System::fingerprint(const Coordinator &x) const
{
    std::ostringstream os;
    const MachineConfig &c = x.cfg;
    // The slot the retired batch-discipline config field held: 1 for a
    // plain batch under OI-aware selection, the only discipline that
    // can order such a queue differently from FCFS.
    const bool oi_batch = !has_traffic_ && x.dispatcher->wantsOiScore();
    os << c.numCores << '|' << static_cast<int>(c.policy) << '|'
       << c.ghz << '|' << c.numExeBUs << '|' << c.vregsPerBlk << '|'
       << c.pregsPerBlk << '|' << c.computeIssueWidth << '|'
       << c.memIssueWidth << '|' << c.transmitWidth << '|'
       << c.instPoolEntries << '|' << c.issueQueueEntries << '|'
       << c.robEntries << '|' << c.commitWidth << '|'
       << c.loadQueueEntries << '|' << c.storeQueueEntries << '|'
       << c.fpLatency << '|' << c.laneMgrLatency << '|'
       << c.retireDelay << '|' << c.dramLatency << '|'
       << c.dramBytesPerCycle << '|' << c.prefetchDegree << '|'
       << c.monitorPeriod << '|' << c.contextSwitchCycles << '|'
       << (oi_batch ? 1 : 0) << '|';
    describeCache(os, c.vecCache);
    describeCache(os, c.l2);
    for (unsigned u : c.staticPlan)
        os << u << ',';
    os << '#';
    for (unsigned i = 0; i < c.numCores; ++i) {
        os << names_[i] << '@';
        describeLoops(os, loops_[i]);
    }
    os << '#';
    for (const auto &[name, loops] : queue_) {
        os << name << '@';
        describeLoops(os, loops);
    }
    // Determinism-relevant run options. fastForward and checkpointing
    // knobs are deliberately excluded: they never change simulated
    // state, so a ticked run may restore a fast-forwarded checkpoint.
    os << '#' << x.opt.maxCycles << '|' << kTimelineBucket << '|'
       << x.opt.snapshotEvery << '|' << x.opt.watchdogCycles << '|'
       << (x.opt.faultPlan ? x.opt.faultPlan->describe() : "");
    // Traffic metadata and the dispatch discipline are determinism-
    // relevant. Appended only for traffic runs so traffic-free
    // fingerprints — and every existing checkpoint — are unchanged.
    if (has_traffic_) {
        os << '#' << (dispatcher_ ? dispatcher_->key() : "") << '|';
        for (const traffic::Arrival &m : queue_meta_)
            os << m.arriveAt << ',' << m.tenant << ',' << m.sloBudget
               << ',' << m.dependsOn << ',' << m.thinkGap << ','
               << m.estCost << ';';
    }
    // The admission policy and its knobs are determinism-relevant.
    // Appended only when a policy is installed so admission-off
    // fingerprints — and every existing checkpoint — are unchanged.
    if (has_traffic_ && admission_)
        os << '#' << "adm:" << admission_->key() << '|'
           << admission_cap_ << '|' << admission_refill_;
    // Cluster topology and per-cluster resolved static plans. Appended
    // only on clustered machines so every flat-machine fingerprint —
    // and every existing checkpoint — is unchanged.
    if (c.numClusters > 1) {
        os << '#' << c.numClusters << '|' << c.interArbiterPeriod
           << '|' << c.clusterMigrationCycles << '|';
        for (const auto &eng : x.engines) {
            for (unsigned u : eng->view().staticPlan)
                os << u << ',';
            os << ';';
        }
    }

    const std::string s = os.str();
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char ch : s)
        h = (h ^ ch) * 0x100000001B3ULL;
    return h;
}

template <class X, class Ar>
void
System::io(X &x, Ar &ar, double &busy, unsigned &region,
           std::vector<std::string> &strs) const
{
    ar.section("meta");
    ar.same(fingerprint(x),
            "checkpoint fingerprint mismatch: the file was written by "
            "a system with a different configuration, workload set, or "
            "determinism-relevant run options");
    ar.u64(x.now);

    ar.section("engine");
    ar.u64(x.last_finish);
    ar.b(x.complete);
    ar.b(x.result.wallKilled);
    ar.u64(x.ff.cyclesSimulated);
    ar.u64(x.ff.cyclesTicked);
    ar.u64(x.ff.cyclesSkipped);
    ar.u64(x.ff.spans);
    ar.u64(x.ff.longestSpan);
    ar.u64(x.watchdog_trips);
    // The flat busy-integral slot stays a single f64 (the frozen byte
    // layout): the cluster-id-order sum of the per-engine shares. On a
    // flat machine that sum IS engine 0's accumulator, bit for bit; on
    // clustered machines the per-engine shares needed to resume follow
    // in the "cluster" section below.
    ar.f64(busy);

    // Program bookkeeping: the queue-dispatch compile log replays the
    // exact compile order on restore.
    ar.u32(region);
    ar.len(x.compile_log);
    for (auto &[core, q] : x.compile_log) {
        ar.u16(core, x.cfg.numCores,
               "corrupt checkpoint (compile log core id)");
        ar.u64(q, queue_.size(),
               "checkpoint compile log references a queue entry this "
               "system lacks");
    }
    for (auto &p : x.core_prog)
        ar.u64(p);

    // Scheduling / completion state.
    for (auto &f : x.finish)
        ar.u64(f);
    for (auto &&d : x.done)
        ar.b(d);
    ar.same(x.dispatched.size(), "checkpoint batch queue length mismatch");
    for (auto &&d : x.dispatched)
        ar.b(d);
    ar.u64(x.undispatched);
    for (auto &oi : x.sched_oi)
        ioPhaseOI(oi, ar);
    for (auto &d : x.dispatch_at)
        ar.u64(d);
    for (auto &p : x.pending_wl)
        ar.u64(p, std::max<std::size_t>(queue_.size(), 1),
               "corrupt checkpoint (pending workload index)");

    // Timelines, in global core order (the engines hold them now, but
    // the byte layout is the pre-engine flat one).
    auto timeline = [&ar](std::vector<double> &bk) {
        ar.len(bk);
        for (double &v : bk)
            ar.f64(v);
    };
    for (unsigned c = 0; c < x.cfg.numCores; ++c)
        timeline(x.engines[x.clusterOf(c)]->busyBuckets(x.lc(c)));
    for (unsigned c = 0; c < x.cfg.numCores; ++c)
        timeline(x.engines[x.clusterOf(c)]->allocBuckets(x.lc(c)));

    // Partial results accumulated so far.
    ar.len(x.result.batch);
    for (auto &b : x.result.batch) {
        ar.str(b.name);
        ar.u16(b.core, x.cfg.numCores,
               "corrupt checkpoint (batch completion core id)");
        ar.u64(b.dispatched);
        ar.u64(b.finished);
    }
    ar.len(x.result.snapshots);
    for (auto &s : x.result.snapshots) {
        ar.u64(s.cycle);
        ar.len(s.values);
        for (auto &[name, v] : s.values) {
            ar.str(name);
            ar.f64(v);
        }
    }

    // The sink's intern table, so a resumed run hands out identical
    // string ids for identical names.
    ar.len(strs);
    for (std::string &s : strs)
        ar.str(s);

    // Consumable fault-injector state.
    ar.same(x.injector != nullptr,
            "checkpoint fault-plan presence mismatch (pass the same "
            "--faults / --fault-seed the checkpointing run used)");
    if (x.injector)
        ar.io(*x.injector);

    // Traffic (and admission) lifecycle state. The sections exist only
    // when arrivals were enqueued, so traffic-free checkpoints keep
    // their exact byte layout (and fingerprints) from before the
    // traffic subsystem; presence mismatches are caught by the
    // fingerprint.
    if (x.traffic)
        ar.io(*x.traffic);

    // Inter-cluster arbiter grants and accounting. Like the traffic
    // section, it exists only on clustered machines, so flat-machine
    // checkpoints keep their exact byte layout. The per-engine
    // busy-integral shares follow: the flat slot above only holds
    // their sum, which is not enough to resume engines that keep
    // accumulating independently.
    if (x.arbiter) {
        ar.section("cluster");
        ar.io(*x.arbiter);
        for (auto &eng : x.engines)
            ar.f64(eng->busyIntegral());
    }

    // Components: per cluster its memory system then its co-processor
    // (the flat order on a 1-cluster machine), then every core in
    // global id order. The memory keeps only fills landing after now.
    for (auto &eng : x.engines) {
        ar.io(eng->mem(), x.now);
        ar.io(eng->coproc());
    }
    ar.same(std::uint64_t{x.cfg.numCores}, "checkpoint core count mismatch");
    for (unsigned c = 0; c < x.cfg.numCores; ++c)
        ar.io(x.core(c));
}

void
System::saveCheckpoint(std::ostream &os) const
{
    if (!co_)
        throw std::logic_error("System::saveCheckpoint: boot() first");
    const Coordinator &x = *co_;
    double busy = 0.0;
    for (const auto &eng : x.engines)
        busy += eng->busyIntegral();
    unsigned region = x.region;
    std::vector<std::string> strs =
        x.opt.sink ? x.opt.sink->internedStrings()
                   : std::vector<std::string>{};
    ckpt::Writer w(os);
    io(x, w, busy, region, strs);
    w.finish();
}

void
System::restoreCheckpoint(std::istream &is, const RunOptions &opt)
{
    try {
        boot(opt);
        Coordinator &x = *co_;
        ckpt::Reader r(is);
        double busy = 0.0;
        unsigned region = 0;
        std::vector<std::string> strs;
        io(x, r, busy, region, strs);
        r.finish();

        // Replay queued-workload compiles: deterministic compilation
        // reproduces byte-identical programs and array bindings.
        for (const auto &[core, q] : x.compile_log)
            x.compileAndBind(core, queue_[q].first, queue_[q].second);
        ckpt::Reader::check(x.region == region,
                            "checkpoint compile replay diverged");
        for (unsigned c = 0; c < x.cfg.numCores; ++c) {
            ckpt::Reader::check(x.core_prog[c] < x.programs.size(),
                                "checkpoint program index out of range");
            x.core(c).restoreProgram(x.programs[x.core_prog[c]].get());
        }

        // The flat busy slot is engine 0's accumulator on a flat
        // machine; clustered machines restored every engine's share
        // from the "cluster" section.
        if (!x.arbiter)
            x.engines[0]->busyIntegral() = busy;
        else
            for (unsigned k = 0; k < x.ncl; ++k)
                x.engines[k]->mem().setDramBytesPerCycle(
                    x.arbiter->shares()[k]);
        if (x.opt.sink)
            x.opt.sink->restoreInternedStrings(strs);
        for (auto &eng : x.engines)
            eng->restoredAt(x.now);

        // The wall-clock budget restarts at restore time; it is host
        // time, not simulated state.
        x.wall_start = std::chrono::steady_clock::now();
        obs::emit(opt.sink, obs::EventKind::CheckpointRestore, x.now,
                  kNoCore);
    } catch (...) {
        // Never leave a half-restored machine behind.
        co_.reset();
        throw;
    }
}

// ------------------------------------------------------ live inspection

std::string
System::inspect(const std::string &path) const
{
    if (!co_)
        throw std::logic_error("System::inspect: boot() first");
    const Coordinator &x = *co_;
    std::ostringstream os;
    auto strip = [&path](const char *prefix) -> const char * {
        const std::size_t n = std::string_view(prefix).size();
        return path.compare(0, n, prefix) == 0 ? path.c_str() + n
                                               : nullptr;
    };
    auto unknown = [&path] {
        return std::invalid_argument("unknown component path: " + path);
    };
    // The decimal index leading @p spec, below @p bound. Without @p rest
    // it must span all of @p spec; with it, the remainder goes there.
    auto pathIndex = [&](std::string_view spec, unsigned bound,
                     const char *what,
                     std::string_view *rest = nullptr) -> unsigned {
        unsigned v = 0;
        const char *end = spec.data() + spec.size();
        const auto [p, ec] = std::from_chars(spec.data(), end, v);
        if (ec != std::errc{} || (!rest && p != end))
            throw unknown();
        if (v >= bound)
            throw std::out_of_range(std::string("no such ") + what +
                                    ": " + path);
        if (rest)
            *rest = std::string_view(p, end - p);
        return v;
    };
    // Un-prefixed component paths address cluster 0 — the whole
    // machine on a flat config, and a convenient alias on a clustered
    // one; system.clusterN.* addresses a specific cluster.
    const ClusterEngine &cl0 = *x.engines[0];
    if (path == "system") {
        os << "policy " << x.model.key() << '\n'
           << "cores " << x.cfg.numCores << '\n'
           << "cycle " << x.now << '\n'
           << "complete " << (x.complete ? 1 : 0) << '\n'
           << "queued_workloads " << queue_.size() << '\n'
           << "undispatched " << x.undispatched << '\n'
           << "watchdog_trips " << x.watchdog_trips << '\n'
           << "cycles_ticked " << x.ff.cyclesTicked << '\n'
           << "ff_spans " << x.ff.spans << '\n';
        if (x.ncl > 1)
            os << "clusters " << x.ncl << '\n'
               << "cores_per_cluster " << x.cpk << '\n'
               << "arbiter_rebalances " << x.arbiter->rebalances()
               << '\n'
               << "cluster_migrations " << x.arbiter->migrations()
               << '\n';
        if (x.traffic) {
            os << "traffic_dispatcher " << x.dispatcher->key() << '\n';
            x.traffic->printState(os);
        }
    } else if (path == "system.arbiter" && x.arbiter) {
        os << "clusters " << x.ncl << '\n'
           << "total_dram_bpc " << x.arbiter->totalBpc() << '\n'
           << "period " << x.arbiter->period() << '\n'
           << "rebalances " << x.arbiter->rebalances() << '\n'
           << "migrations " << x.arbiter->migrations() << '\n';
        for (unsigned k = 0; k < x.ncl; ++k)
            os << "cluster" << k << "_share "
               << x.arbiter->shares()[k] << '\n';
    } else if (path == "system.mem") {
        cl0.mem().printState(os);
    } else if (path == "system.mem.vec_cache") {
        cl0.mem().vecCache().printState(os);
    } else if (path == "system.mem.l2") {
        cl0.mem().l2().printState(os);
    } else if (path == "system.coproc") {
        cl0.coproc().printState(os, "");
    } else if (path == "system.coproc.rt") {
        cl0.coproc().printState(os, "rt");
    } else if (path == "system.coproc.lanemgr") {
        cl0.coproc().printState(os, "lanemgr");
    } else if (path == "system.coproc.regfile") {
        cl0.coproc().printState(os, "regfile");
    } else if (const char *spec = strip("system.coproc.core")) {
        // Global core N lives on cluster N / K as local core N % K.
        const unsigned c = pathIndex(spec, x.cfg.numCores, "core");
        x.eng(c).coproc().printState(os, std::to_string(x.lc(c)));
    } else if (const char *spec = strip("system.cluster")) {
        std::string_view sub;
        const ClusterEngine &cl =
            *x.engines[pathIndex(spec, x.ncl, "cluster", &sub)];
        if (sub == ".mem")
            cl.mem().printState(os);
        else if (sub == ".coproc")
            cl.coproc().printState(os, "");
        else
            throw unknown();
    } else if (const char *spec = strip("system.core")) {
        x.core(pathIndex(spec, x.cfg.numCores, "core")).printState(os);
    } else {
        throw unknown();
    }
    return os.str();
}

std::vector<std::string>
System::componentPaths() const
{
    std::vector<std::string> paths{
        "system",          "system.mem",
        "system.mem.vec_cache", "system.mem.l2",
        "system.coproc",   "system.coproc.rt",
        "system.coproc.lanemgr", "system.coproc.regfile",
    };
    if (cfg_.numClusters > 1) {
        paths.push_back("system.arbiter");
        for (unsigned k = 0; k < cfg_.numClusters; ++k) {
            const std::string p = "system.cluster" + std::to_string(k);
            paths.push_back(p + ".mem");
            paths.push_back(p + ".coproc");
        }
    }
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        paths.push_back("system.coproc.core" + std::to_string(c));
        paths.push_back("system.core" + std::to_string(c));
    }
    return paths;
}

RunResult
corun(SharingPolicy p,
      const std::vector<std::pair<std::string,
                                  std::vector<kir::Loop>>> &wls,
      const RunOptions &opt)
{
    MachineConfig cfg = MachineConfig::forPolicy(
        p, static_cast<unsigned>(wls.size()));
    System sys(cfg);
    for (unsigned c = 0; c < wls.size(); ++c)
        sys.setWorkload(static_cast<CoreId>(c), wls[c].first,
                        wls[c].second);
    return sys.run(opt);
}

} // namespace occamy
