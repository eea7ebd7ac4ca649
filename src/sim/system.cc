#include "sim/system.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/ckpt.hh"
#include "fault/injector.hh"
#include "kir/analysis.hh"
#include "lanemgr/cluster_arbiter.hh"
#include "lanemgr/partitioner.hh"
#include "policy/sharing_model.hh"
#include "sim/cluster_engine.hh"
#include "sim/tick_pool.hh"
#include "sim/wake_table.hh"
#include "traffic/session.hh"

namespace occamy
{

namespace
{

/**
 * The flat view cluster @p k of @p cfg is built from: K local cores,
 * the per-cluster ExeBU count, this cluster's initial DRAM grant, and
 * a 1/C slice of the shared L2.
 */
MachineConfig
clusterView(const MachineConfig &cfg, unsigned initial_dram_bpc)
{
    MachineConfig v = cfg;
    v.numClusters = 1;
    v.numCores = cfg.coresPerCluster();
    v.dramBytesPerCycle = initial_dram_bpc;
    v.l2.sizeBytes = std::max<std::uint64_t>(
        cfg.l2.sizeBytes / cfg.numClusters, 1);
    v.l2.bytesPerCycle =
        std::max(cfg.l2.bytesPerCycle / cfg.numClusters, 1u);
    return v;
}

} // namespace

/**
 * Everything one booted run owns: the machine, the compiled programs,
 * and every loop-carried variable of the cycle loop. run() used to
 * keep all of this in locals; hoisting it here lets the loop pause at
 * any cycle boundary (advance(stopAt)), which is what checkpointing
 * and the serve daemon's incremental stepping are built on.
 */
struct System::Ctx
{
    RunOptions opt;
    MachineConfig cfg;          ///< Resolved (static plan filled in).
    const policy::SharingModel &model;

    /** One tick engine per cluster; flat machines are the 1-cluster
     *  case. Each engine owns its cluster's view, mem, coproc, cores,
     *  and lane accounting (sim/cluster_engine.hh). */
    std::vector<std::unique_ptr<ClusterEngine>> engines;
    /** Level-2 lane manager; only clustered machines have one. */
    std::unique_ptr<ClusterArbiter> arbiter;
    /** Worker pool for the parallel tick phase, started by the first
     *  advance() that ticks, so a booted machine that never runs holds
     *  no threads; stays null for the serial loop (opt.simThreads <= 1,
     *  or a flat machine with one engine). */
    std::unique_ptr<TickPool> pool;
    /** Engines buffer tick-phase events for cluster-order merging.
     *  Keyed to the topology (clustered + sink), never the thread
     *  count, so 1-vs-N-thread streams are identical by construction. */
    bool buffered = false;
    unsigned ncl = 1;           ///< cfg.numClusters, cached.
    unsigned cpk = 1;           ///< Cores per cluster, cached.

    /** Engine that owns global core @p c. */
    ClusterEngine &eng(unsigned c) { return *engines[c / cpk]; }
    const ClusterEngine &eng(unsigned c) const
    {
        return *engines[c / cpk];
    }
    /** Global core id -> cluster-local core id. */
    CoreId lc(unsigned c) const { return static_cast<CoreId>(c % cpk); }
    unsigned clusterOf(unsigned c) const { return c / cpk; }
    /** Global core accessor. */
    ScalarCore &core(unsigned c) { return eng(c).core(lc(c)); }
    const ScalarCore &core(unsigned c) const
    {
        return eng(c).core(lc(c));
    }

    std::unique_ptr<fault::FaultInjector> injector;

    std::vector<std::unique_ptr<Program>> programs;
    unsigned region = 0;

    /** Queued-workload compiles in dispatch order (core, queue index):
     *  replayed verbatim on restore so program addresses, phase-id
     *  layout and the `region` counter come out identical. */
    std::vector<std::pair<CoreId, std::uint64_t>> compile_log;
    /** Per core: index into `programs` of the installed program. */
    std::vector<std::uint64_t> core_prog;

    RunResult result;
    unsigned total_lanes = 0;
    std::vector<Cycle> finish;
    std::vector<bool> done;

    // Batch dispatch state (Section 5).
    const traffic::Dispatcher *dispatcher = nullptr;    ///< Never null.
    std::vector<bool> dispatched;
    std::size_t undispatched = 0;
    std::vector<PhaseOI> queue_oi;
    RooflineParams roofline;
    std::vector<PhaseOI> sched_oi;
    std::vector<Cycle> dispatch_at;
    std::vector<std::size_t> pending_wl;

    /** Arrival and admission lifecycle of the queue; exists only when
     *  traffic arrivals were enqueued, so its presence gates every
     *  traffic-side branch, event, checkpoint section and export. */
    std::unique_ptr<traffic::Session> traffic;

    FastForwardStats ff;
    std::uint64_t watchdog_trips = 0;
    std::chrono::steady_clock::time_point wall_start;
    Cycle now = 0;
    Cycle last_finish = 0;
    bool complete = false;

    Ctx(const MachineConfig &resolved,
        const std::vector<MachineConfig> &views, const RunOptions &o)
        : opt(o), cfg(resolved), model(policy::model(cfg.policy)),
          ncl(cfg.numClusters), cpk(cfg.coresPerCluster())
    {
        for (unsigned k = 0; k < ncl; ++k) {
            const std::string prefix =
                ncl == 1 ? std::string("system")
                         : "system.cluster" + std::to_string(k);
            engines.push_back(
                std::make_unique<ClusterEngine>(k, views[k], prefix));
        }
        // All clusters share one machine shape; the roofline used for
        // scheduling decisions is derived from cluster 0's view (== the
        // config on a flat machine).
        roofline = RooflineParams::fromConfig(engines[0]->view());
    }
};

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

const Program *
System::compileAndBind(Ctx &x, CoreId c, const std::string &name,
                       const std::vector<kir::Loop> &loops)
{
    // Compile a workload for a core and bind its arrays into a private,
    // staggered address region (distinct cache-set alignment per slot).
    // Compilation targets the owning cluster's view (== the config on a
    // flat machine), with the core's cluster-local id.
    const MachineConfig &view = x.eng(c).view();
    const unsigned fixed_vl = x.model.perCoreFixedVl(view, x.lc(c));
    CompileOptions opts = CompileOptions::forMachine(view, fixed_vl);
    Compiler compiler(opts);
    auto prog = std::make_unique<Program>(compiler.compile(name, loops));
    const unsigned slot = x.region++;
    Addr next = ((static_cast<Addr>(slot) + 1) << 36) +
                static_cast<Addr>(slot % x.cfg.numCores) * 40960;
    for (auto &arr : prog->arrays) {
        arr.base = next;
        const Addr size = arr.elems * arr.elemBytes;
        next += (size + 4095) / 4096 * 4096 + 4096;
    }
    x.programs.push_back(std::move(prog));
    return x.programs.back().get();
}

void
System::boot(const RunOptions &opt)
{
    MachineConfig cfg = cfg_;
    const policy::SharingModel &model = policy::model(cfg.policy);

    // Per-cluster flat views, each with its own offline static lane
    // plan (Section 7.1's static spatial sharing, and work-conserving
    // variants entitled by the same plan), resolved over the cluster's
    // own K local cores. A flat machine is the one-cluster case: its
    // view is the config itself, and the resolved plan is its plan.
    std::unique_ptr<ClusterArbiter> arbiter;
    if (cfg.numClusters > 1)
        arbiter = std::make_unique<ClusterArbiter>(
            cfg.numClusters, cfg.dramBytesPerCycle,
            cfg.interArbiterPeriod);
    std::vector<MachineConfig> views;
    const unsigned K = cfg.coresPerCluster();
    for (unsigned k = 0; k < cfg.numClusters; ++k) {
        MachineConfig v =
            arbiter ? clusterView(cfg, arbiter->shares()[k]) : cfg;
        if (model.wantsOfflineStaticPlan() && v.staticPlan.empty()) {
            std::vector<std::vector<PhaseOI>> phase_ois(K);
            std::vector<bool> will_run(K, false);
            for (unsigned i = 0; i < K; ++i) {
                const unsigned g = k * K + i;
                for (const auto &loop : loops_[g])
                    phase_ois[i].push_back(kir::phaseOI(
                        loop, v.vecCache.sizeBytes, v.l2.sizeBytes));
                will_run[i] = !loops_[g].empty() || !queue_.empty();
            }
            model.resolveStaticPlan(v, phase_ois, will_run);
        }
        views.push_back(std::move(v));
    }
    if (!arbiter)
        cfg = views[0];

    // Traffic arrivals make entries wait for their effective arrival
    // cycle (and for admission, if a policy is installed); a plain
    // batch queue has no session and every entry is available at once.
    // Built before the machine, like the arbiter: its job table then
    // sits below the large cache arrays on the heap, so tearing a run
    // down does not return those pages to the OS for the next boot to
    // fault in again (which doubled boot time when built after).
    std::unique_ptr<traffic::Session> session;
    if (has_traffic_)
        session = std::make_unique<traffic::Session>(
            queue_meta_, cfg.numCores, admission_, admission_cap_,
            admission_refill_, opt.sink);
    ctx_ = std::make_unique<Ctx>(cfg, views, opt);
    Ctx &x = *ctx_;
    x.arbiter = std::move(arbiter);
    x.traffic = std::move(session);

    // Fault injection (src/fault): the injector's consumable plan is a
    // single stateful stream, so it attaches to cluster 0's components
    // (the whole machine on a flat config). Null plan = fault-free, and
    // none of the hooks fire.
    if (opt.faultPlan && !opt.faultPlan->empty()) {
        x.injector = std::make_unique<fault::FaultInjector>(
            *opt.faultPlan, x.cfg.numExeBUs);
        x.engines[0]->coproc().setFaultInjector(x.injector.get());
        x.engines[0]->mem().setFaultInjector(x.injector.get());
    }

    x.core_prog.assign(x.cfg.numCores, 0);
    for (unsigned c = 0; c < x.cfg.numCores; ++c) {
        ClusterEngine &eng = x.eng(c);
        eng.addCore(std::make_unique<ScalarCore>(
            x.lc(c), eng.view(), eng.coproc()));
        x.core(c).setProgram(compileAndBind(
            x, static_cast<CoreId>(c), names_[c], loops_[c]));
        x.core_prog[c] = x.programs.size() - 1;
    }

    // Attach the trace sink after construction so boot-time plumbing
    // (e.g. initial lane grants) produces no events. Clustered
    // machines route tick-phase events through per-engine buffers
    // merged in cluster order (independent of the thread count); flat
    // machines record straight into the sink, preserving the
    // pre-engine event order exactly.
    x.buffered = opt.sink != nullptr && x.ncl > 1;
    for (auto &eng : x.engines) {
        eng->attachSink(opt.sink, x.buffered);
        eng->regStats();
    }


    x.result.cores.resize(x.cfg.numCores);
    x.total_lanes = x.cfg.totalLanes();
    x.finish.assign(x.cfg.numCores, 0);
    x.done.assign(x.cfg.numCores, false);

    // Every selection goes through a dispatcher; FCFS unless one was
    // installed. Disciplines that score co-placement get each queued
    // workload's first-phase behaviour pre-analyzed.
    x.dispatcher =
        dispatcher_ ? dispatcher_ : traffic::dispatcherByName("fcfs");
    x.dispatched.assign(queue_.size(), false);
    x.undispatched = queue_.size();
    x.queue_oi.resize(queue_.size());
    if (x.dispatcher->wantsOiScore()) {
        const MachineConfig &view = x.engines[0]->view();
        for (std::size_t q = 0; q < queue_.size(); ++q)
            if (!queue_[q].second.empty())
                x.queue_oi[q] = kir::phaseOI(queue_[q].second.front(),
                                             view.vecCache.sizeBytes,
                                             view.l2.sizeBytes);
    }

    // What each core is running or about to run, for placement
    // decisions (the resource table lags behind pending dispatches).
    x.sched_oi.assign(x.cfg.numCores, PhaseOI{});
    x.dispatch_at.assign(x.cfg.numCores, kCycleNever);
    x.pending_wl.assign(x.cfg.numCores, 0);
    x.wall_start = std::chrono::steady_clock::now();

    // Boot beacon: engine category, so kEvAll artifacts are untouched.
    // A serve daemon counts these to prove a warm-pool request paid no
    // boot cost on the request path.
    obs::emit(opt.sink, obs::EventKind::SystemBoot, 0, kNoCore,
              x.cfg.numCores, x.cfg.numExeBUs);
}

Cycle
System::now() const
{
    return ctx_ ? ctx_->now : 0;
}

bool
System::finished() const
{
    return ctx_ && ctx_->complete;
}

bool
System::overloaded() const
{
    return ctx_ && ctx_->traffic && ctx_->traffic->overloaded();
}

bool
System::advance(Cycle stop_at)
{
    if (!ctx_)
        throw std::logic_error("System::advance: boot() first");
    Ctx &x = *ctx_;
    if (x.complete)
        return true;

    const RunOptions &opt = x.opt;
    const Cycle max_cycles = opt.maxCycles;
    const unsigned bucket = opt.bucket;
    const MachineConfig &cfg = x.cfg;
    const policy::SharingModel &model = x.model;
    fault::FaultInjector *const injector = x.injector.get();
    RunResult &result = x.result;
    FastForwardStats &ff = x.ff;
    Cycle &now = x.now;
    Cycle &last_finish = x.last_finish;

    auto emit = [&](obs::EventKind k, CoreId core, std::uint64_t a,
                    std::uint64_t b) {
        obs::emit(opt.sink, k, now, core, a, b);
    };

    // Periodic checkpointing: pause at every multiple of the period
    // and overwrite the target file. Derived, not stored: resuming at
    // cycle N computes the same next boundary a straight run uses.
    const Cycle ckpt_every =
        (!opt.checkpointOut.empty() && opt.checkpointEvery)
            ? opt.checkpointEvery : 0;
    Cycle next_ckpt =
        ckpt_every ? (now / ckpt_every + 1) * ckpt_every : kCycleNever;
    auto writeCkpt = [&] {
        std::ofstream os(opt.checkpointOut,
                         std::ios::binary | std::ios::trunc);
        if (!os)
            throw ckpt::Error("cannot open checkpoint file: " +
                              opt.checkpointOut);
        saveCheckpoint(os);
        emit(obs::EventKind::CheckpointSave, kNoCore,
             static_cast<std::uint64_t>(os.tellp()), 0);
    };

    // Estimate the machine's *normalized progress* (the classic
    // weighted-speedup co-scheduling objective) if candidate OI @p cand
    // joins the other cores: sum over active workloads of their
    // attainable rate relative to running alone with all lanes. Raw
    // GFLOP/s would never schedule a memory workload next to a compute
    // one; normalized progress rewards exactly that pairing.
    // Lane partitioning is per cluster, so the candidate is scored
    // against the other cores of the *target's* cluster (the whole
    // machine on a flat config).
    auto progressWith = [&](const PhaseOI &cand, CoreId target) {
        ClusterEngine &tc = x.eng(target);
        std::vector<PhaseOI> ois(x.cpk);
        for (unsigned i = 0; i < x.cpk; ++i) {
            const unsigned g = x.clusterOf(target) * x.cpk + i;
            const PhaseOI &running =
                tc.coproc().resourceTable()
                    .core(static_cast<CoreId>(i)).oi;
            ois[i] = running.active() ? running : x.sched_oi[g];
        }
        ois[x.lc(target)] = cand;
        const auto plan = greedyPartition(x.roofline, ois, cfg.numExeBUs);

        // Memory-bandwidth ceilings are machine-wide: co-running
        // workloads bound at the same level split it. Count them so
        // mem+mem placements are not scored as if each had the full
        // 64 GB/s.
        std::array<unsigned, 3> bound_at{0, 0, 0};
        std::vector<bool> membound(ois.size(), false);
        for (std::size_t i = 0; i < ois.size(); ++i) {
            if (!ois[i].active() || plan[i] == 0)
                continue;
            const double ap = attainable(x.roofline, ois[i], plan[i]);
            const double ceiling =
                memBandwidth(x.roofline, ois[i].level) * ois[i].mem;
            if (ap >= ceiling - 1e-9) {
                membound[i] = true;
                ++bound_at[static_cast<unsigned>(ois[i].level)];
            }
        }

        double total = 0.0;
        for (std::size_t i = 0; i < ois.size(); ++i) {
            if (!ois[i].active())
                continue;
            const double solo = attainable(x.roofline, ois[i],
                                           cfg.numExeBUs);
            if (solo <= 0)
                continue;
            double ap = attainable(x.roofline, ois[i], plan[i]);
            if (membound[i])
                ap /= bound_at[static_cast<unsigned>(ois[i].level)];
            total += ap / solo;
        }
        return total;
    };

    // Choose which queued workload an idle core picks up next; returns
    // queue_.size() when nothing is dispatchable yet (the core idles
    // until the next arrival or admission). The traffic session
    // supplies the candidates when there is one; otherwise every
    // undispatched entry is a candidate, except that a clustered
    // machine prefers work whose home cluster (entry q's is
    // q % numClusters) is the idle core's own. Adopting a foreign entry
    // — the work-migration path — costs clusterMigrationCycles and is
    // only taken when no home entry is left.
    std::vector<traffic::PendingJob> pending;
    bool deferred = false;
    auto selectNext = [&](CoreId core) -> std::size_t {
        if (x.traffic) {
            x.traffic->pending(pending);
        } else {
            pending.clear();
            for (std::size_t q = 0; q < queue_.size(); ++q)
                if (!x.dispatched[q])
                    pending.push_back(traffic::PendingJob{.queueIdx = q});
            auto foreign = [&](const traffic::PendingJob &p) {
                return p.queueIdx % x.ncl != x.clusterOf(core);
            };
            if (x.ncl > 1 &&
                !std::all_of(pending.begin(), pending.end(), foreign))
                std::erase_if(pending, foreign);
        }
        if (pending.empty())
            return queue_.size();
        traffic::DispatchContext dc{now, core, pending, {}};
        if (x.dispatcher->wantsOiScore())
            dc.progressScore = [&](std::size_t i) {
                return progressWith(x.queue_oi[pending[i].queueIdx], core);
            };
        const std::size_t sel = x.dispatcher->select(dc);
        if (sel >= pending.size()) {
            deferred = true;
            return queue_.size();       // kDefer: leave the core idle.
        }
        return pending[sel].queueIdx;
    };

    // Wake-candidate table: the machine-level candidates only (the
    // engines probe themselves, see ClusterEngine::tickWindow), one
    // registration per configured feature, in the order of the
    // lock-step wake ladder's last tier, so ties keep their WakeSource
    // attribution. Pre-tick candidates act at the top of their cycle,
    // post-tick ones after the engines ticked it.
    WakeTable wt;
    // An arbiter rebalance can change per-cluster DRAM grants, which
    // no component probe anticipates; wake exactly at the next period
    // boundary.
    if (x.arbiter)
        wt.add(WakeSource::Arbiter, true,
               [period = cfg.interArbiterPeriod](Cycle at) {
                   return (at / period + 1) * period;
               });
    for (unsigned c = 0; c < cfg.numCores; ++c)
        wt.add(WakeSource::Dispatch, false,
               [&x, c](Cycle) { return x.dispatch_at[c]; });
    if (opt.snapshotEvery)
        wt.add(WakeSource::Snapshot, false,
               [every = opt.snapshotEvery](Cycle at) {
                   return (at / every + 1) * every;
               });
    // Fault-plan boundaries change component behaviour even when the
    // machine is otherwise quiescent, and a spinning core's watchdog
    // deadline is a state change the probes above can't see. Both must
    // be wake candidates or fast-forward would skip past them and
    // diverge from the ticked run.
    if (injector)
        wt.add(WakeSource::Fault, true,
               [injector](Cycle at) { return injector->nextEventAt(at); });
    if (opt.watchdogCycles) {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            wt.add(WakeSource::Watchdog, false,
                   [core = &x.core(c), wd = opt.watchdogCycles](Cycle at) {
                       return core->awaitingVl()
                                  ? std::max(core->spinSince() + wd,
                                             at + 1)
                                  : kCycleNever;
                   });
    }
    // A pending traffic arrival, and an admission re-evaluation
    // boundary (a deferred job's backoff expiry, or a fresh arrival's
    // first verdict), are state changes no component probe can see: an
    // all-idle machine waiting for work must wake exactly there.
    // Unresolved closed-loop arrivals need no candidate — their
    // predecessor is still running, so a component event precedes
    // their resolution.
    if (x.traffic) {
        wt.add(WakeSource::Arrival, false,
               [s = x.traffic.get()](Cycle at) {
                   return s->arrivalWake(at);
               });
        if (x.traffic->hasAdmission())
            wt.add(WakeSource::Admission, false,
                   [s = x.traffic.get()](Cycle at) {
                       return s->admissionWake(at);
                   });
    }

    // First cycle >= @p from at which the traffic session is due (the
    // wake probes answer for "after from - 1"; from == 0 wraps to the
    // raw next cycle, which is what cycle 0 needs).
    auto firstDue = [&](Cycle from) {
        return x.traffic
                   ? std::min(x.traffic->arrivalWake(from - 1),
                              x.traffic->admissionWake(from - 1))
                   : kCycleNever;
    };

    // Forward buffered engine events of cycles <= @p upto: cycle by
    // cycle, each in cluster-id order — the stream a per-cycle merge
    // produces, whatever the window shape and thread count.
    auto drainUpTo = [&](Cycle upto) {
        while (x.buffered) {
            Cycle c = kCycleNever;
            for (auto &eng : x.engines)
                c = std::min(c, eng->nextEventCycle());
            if (c > upto)
                return;
            for (auto &eng : x.engines)
                eng->drainEventsUpTo(c);
        }
    };

    // Completion, traffic lifecycle and batch dispatch for core @p c,
    // done and drained with no dispatch pending, at cycle `now`. An
    // idle core re-polled here is a no-op unless the queue changed.
    std::vector<bool> idle(cfg.numCores, false);
    auto settle = [&](unsigned c) {
        const CoreId cid = static_cast<CoreId>(c);
        idle[c] = false;
        // Close the traffic lifecycle and the batch record of the
        // workload that just completed on this core, if any.
        if (x.traffic)
            x.traffic->completed(cid, now);
        for (auto it = result.batch.rbegin(); it != result.batch.rend();
             ++it) {
            if (it->core == c && it->finished == 0) {
                it->finished = now;
                break;
            }
        }
        if (x.undispatched == 0) {
            x.done[c] = true;
            x.finish[c] = now;
            last_finish = std::max(last_finish, now);
            return;
        }
        // Grab the next workload (per the dispatch discipline) after
        // the OS context-switch cost. Under traffic nothing may have
        // arrived yet; the core then idles until the next arrival.
        const std::size_t q = selectNext(cid);
        if (q == queue_.size()) {
            idle[c] = true;
            return;
        }
        x.pending_wl[c] = q;
        x.dispatched[q] = true;
        x.sched_oi[c] = x.queue_oi[q];
        --x.undispatched;
        x.dispatch_at[c] = now + cfg.contextSwitchCycles;
        // Cross-cluster adoption (work migration) pays the extra
        // state-movement cost and is accounted by the arbiter.
        const unsigned home = static_cast<unsigned>(q % x.ncl);
        const unsigned here = x.clusterOf(c);
        if (home != here) {
            x.dispatch_at[c] += cfg.clusterMigrationCycles;
            x.arbiter->noteMigration(home, here);
            emit(obs::EventKind::ClusterArbiterMigrate, cid, q,
                 (static_cast<std::uint64_t>(home) << 32) | here);
        }
        if (x.traffic)
            x.traffic->selected(q, cid, now);
    };

    // Idle cores are re-polled on a quiet cycle while this is set
    // (see serialStep).
    bool rescan = true;

    // The lock-step fast-forward decision after cycle `now`, given
    // every engine quiescent with @p probes: the earliest wake over the
    // engines' probes (co-processors, then cores, then memories) and
    // the machine-level candidates, ties keeping the first. Returns the
    // next cycle to run. Pause and checkpoint boundaries cap the jump
    // so the loop lands on them exactly — bookkeeping only: the span
    // shapes (and SchedFastForward events, engine category) may differ
    // from an uninterrupted run, the simulated state never does — a
    // split skip synthesizes the same bucket sums and round-robin
    // advance as one long skip.
    std::vector<ClusterEngine::Probe> probes(x.ncl);
    auto fastForwardFrom = [&]() -> Cycle {
        Cycle wake = kCycleNever;
        WakeSource why = WakeSource::Cap;
        auto consider = [&](Cycle w, WakeSource s) {
            if (w < wake) {
                wake = w;
                why = s;
            }
        };
        for (const auto &p : probes)
            consider(p.coproc, WakeSource::Coproc);
        for (const auto &p : probes)
            consider(p.core, WakeSource::Core);
        for (const auto &p : probes)
            consider(p.mem, WakeSource::Mem);
        const auto [w, s] = wt.evaluate(now);
        consider(w, s);
        if (stop_at < wake) {
            wake = stop_at;
            why = WakeSource::Checkpoint;
        }
        if (next_ckpt < wake) {
            wake = next_ckpt;
            why = WakeSource::Checkpoint;
        }
        if (wake <= now + 1)
            return now + 1;

        // Nothing can happen before `wake`; a machine with no pending
        // event at all (wake == kCycleNever) matches the ticked run's
        // spin to the cap, so jump straight there and time out.
        Cycle target = wake;
        if (target >= max_cycles) {
            target = max_cycles;
            why = WakeSource::Cap;
        }
        const Cycle span = target - now - 1;
        if (span == 0)
            return now + 1;
        drainUpTo(now);
        emit(obs::EventKind::SchedFastForward, kNoCore, span,
             static_cast<std::uint64_t>(why));
        ++ff.spans;
        ff.cyclesSkipped += span;
        ff.longestSpan = std::max(ff.longestSpan, span);
        return target;
    };

    // Replayed decision at a cycle inside the window, from what the
    // engines recorded.
    auto replayedFastForward = [&]() -> Cycle {
        if (!opt.fastForward)
            return now + 1;
        bool quiet = true;
        for (unsigned k = 0; k < x.ncl; ++k)
            quiet &= x.engines[k]->stateAt(now, &probes[k]) ==
                     ClusterEngine::State::Quiet;
        return quiet ? fastForwardFrom() : now + 1;
    };

    // The same decision on live state at a window's last cycle. A skip
    // re-bases every engine's quiescent stretch on these probes: the
    // serial step may have changed what the engines' own ticks said.
    auto liveFastForward = [&]() -> Cycle {
        if (!opt.fastForward)
            return now + 1;
        bool calm = true;
        for (unsigned k = 0; k < x.ncl; ++k)
            calm &= x.engines[k]->probeLive(now, &probes[k]);
        if (!calm)
            return now + 1;
        bool quiet = true;
        for (unsigned k = 0; k < x.ncl; ++k) {
            probes[k].mem = x.engines[k]->mem().nextEventAt(now);
            quiet &= probes[k].mem > now + 1;
        }
        if (!quiet)
            return now + 1;
        for (unsigned k = 0; k < x.ncl; ++k)
            x.engines[k]->markQuiet(probes[k]);
        return fastForwardFrom();
    };

    // The first cycle after `now` within [.., bound] at which every
    // engine recorded a quiet state, the only cycles at which the
    // replay can skip (bound when there is none).
    auto nextQuiet = [&](Cycle from, Cycle bound) {
        for (Cycle c = from;;) {
            Cycle m = c;
            for (auto &eng : x.engines)
                m = std::max(m, eng->nextQuiet(c));
            if (m == c || m >= bound)
                return std::min(m, bound);
            c = m;
        }
    };

    // The serial step after the engines ticked `now`: watchdog,
    // traffic arrivals and admission, dispatch, completion, snapshot.
    // Inside a window only the traffic session, engine stops (the
    // cores flagged in `edge`) and idle polls can act; at its last
    // cycle every engine has ticked exactly through `now` and the full
    // step runs on live state. Sets x.complete once every core is done.
    std::vector<bool> edge(cfg.numCores, false);
    auto serialStep = [&](bool window_end) {
        // Livelock/deadlock watchdog: a <VL>-request episode (initial
        // write + Fig. 9 retry spin) that outlives the deadline is
        // escalated to the scalar fallback instead of spinning forever.
        if (window_end && opt.watchdogCycles) {
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                ScalarCore &core = x.core(c);
                if (!core.awaitingVl() ||
                    now < core.spinSince() + opt.watchdogCycles)
                    continue;
                CoProcessor &cp = x.eng(c).coproc();
                const VlRequestStatus st =
                    cp.vlRequestStatus(core.id());
                if (st.resolved && st.ok)
                    continue;   // Grant landed; the spin ends next step.
                ++x.watchdog_trips;
                emit(obs::EventKind::WatchdogTrip, static_cast<CoreId>(c),
                     cp.currentVl(core.id()), now - core.spinSince());
                core.watchdogEscalate(now);
            }
        }

        // Traffic arrivals and admission verdicts due this cycle, before
        // any dispatch decision.
        if (x.traffic && x.traffic->due(now))
            x.undispatched -= x.traffic->admitArrivals(now, x.dispatched);

        // Dispatch queued workloads onto cores whose context switch
        // completed.
        for (unsigned c = 0; window_end && c < cfg.numCores; ++c) {
            if (x.dispatch_at[c] == kCycleNever || now < x.dispatch_at[c])
                continue;
            const CoreId cid = static_cast<CoreId>(c);
            const std::size_t q = x.pending_wl[c];
            const auto &[wl_name, wl_loops] = queue_[q];
            x.compile_log.emplace_back(cid, q);
            x.core(c).setProgram(compileAndBind(x, cid, wl_name, wl_loops));
            x.core_prog[c] = x.programs.size() - 1;
            if (x.traffic)
                x.traffic->started(cid, q);
            result.batch.push_back(BatchCompletion{wl_name, cid, now, 0});
            if (opt.sink && opt.sink->wants(obs::EventKind::BatchDispatch))
                emit(obs::EventKind::BatchDispatch, cid,
                     opt.sink->internString(wl_name), q);
            x.dispatch_at[c] = kCycleNever;
        }

        // The scheduler: every core that is done and drained with no
        // dispatch pending settles (completion, next pick).
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            const bool ready =
                window_end ? x.core(c).doneEmitting() &&
                                 x.eng(c).coproc().coreDrained(x.lc(c)) &&
                                 x.dispatch_at[c] == kCycleNever
                           : idle[c] || edge[c];
            if (!x.done[c] && ready)
                settle(c);
            else
                idle[c] = false;
            edge[c] = false;
        }
        // Idle cores must be re-polled on a quiet cycle only while a
        // poll can change something: the queue emptied (they retire)
        // or the dispatcher deferred a candidate. Arrivals and
        // admissions are polled at their own (due) cycles.
        rescan = std::find(idle.begin(), idle.end(), true) != idle.end() &&
                 (x.undispatched == 0 || deferred);
        deferred = false;

        if (window_end && opt.snapshotEvery && now > 0 &&
            now % opt.snapshotEvery == 0) {
            obs::MetricSnapshot snap;
            snap.cycle = now;
            for (auto &eng : x.engines) {
                auto mv = eng->memGroup().snapshot();
                snap.values.insert(snap.values.end(), mv.begin(),
                                   mv.end());
                auto cv = eng->cpGroup().snapshot();
                snap.values.insert(snap.values.end(), cv.begin(),
                                   cv.end());
            }
            std::sort(snap.values.begin(), snap.values.end());
            result.snapshots.push_back(std::move(snap));
        }
        x.complete = std::find(x.done.begin(), x.done.end(), false) ==
                     x.done.end();
    };

    // One window round: every engine whose last stop the replay has
    // passed runs on to its next stop. An engine with a live core may
    // run to the window end (the run cannot end before that core
    // finishes, which is a stop); one without runs only through the
    // replay cursor, so no engine ever ticks past the run's last cycle.
    // Such engines are nearly always quiescent and run inline; the
    // pool splits the rest. Engines also stop short of the next due
    // traffic cycle (or of every cycle, while idle cores are polled),
    // so an unbuffered flat stream sees coordinator events in order.
    const ClusterEngine::Knobs knobs{model.fullWidthExecution(), bucket,
                                     opt.fastForward};
    Cycle horizon = 0;
    std::vector<Cycle> limit(x.ncl, 0);
    const std::function<void(unsigned)> round_task =
        [&x, &limit, &knobs](unsigned k) {
            if (limit[k])
                x.engines[k]->tickWindow(limit[k], knobs);
        };
    auto runRound = [&] {
        const Cycle due = firstDue(now);
        const Cycle evt_limit =
            rescan ? now + 1 : due == kCycleNever ? kCycleNever : due + 1;
        unsigned pooled = 0;
        for (unsigned k = 0; k < x.ncl; ++k) {
            ClusterEngine &eng = *x.engines[k];
            limit[k] = 0;
            if (eng.stopped()) {
                if (eng.stopCycle() >= now)
                    continue;
                eng.resume();
            }
            if (!eng.hasLiveCore()) {
                eng.tickWindow(std::min(horizon, now + 1), knobs);
            } else if (eng.at() < std::min(horizon, evt_limit)) {
                limit[k] = std::min(horizon, evt_limit);
                ++pooled;
            }
        }
        if (x.pool && pooled > 1)
            x.pool->run(x.ncl, round_task);
        else
            for (unsigned k = 0; k < x.ncl; ++k)
                round_task(k);
    };

    // Worker pool for the window rounds: only useful when there is
    // more than one engine to tick concurrently.
    const unsigned tick_threads =
        std::min<unsigned>(std::max(opt.simThreads, 1u), x.ncl);
    if (!x.pool && tick_threads > 1 && now < std::min(stop_at, max_cycles))
        x.pool = std::make_unique<TickPool>(tick_threads);

    // Ticked-cycle count of the next wall-clock check.
    constexpr Cycle kWallCheckMask = 0xFFFF;
    Cycle wall_check = (ff.cyclesTicked | kWallCheckMask) + 1;

    // --- Cycle loop: one tick window per iteration. ---
    while (now < max_cycles) {
        // Pause boundary: state is exactly "about to execute cycle
        // `now`", the same point a checkpoint captures. Checked before
        // anything else so advance(N); advance(M) ticks each cycle
        // exactly once.
        for (auto &eng : x.engines)
            eng->beginWindow(now, knobs);
        if (now >= stop_at)
            return false;
        if (now == next_ckpt) {
            writeCkpt();
            next_ckpt += ckpt_every;
        }

        ++ff.cyclesTicked;

        // Hard wall-clock kill (runner containment): checked at the
        // first window start after every 65,536 ticked cycles, so the
        // steady_clock read stays off the hot path.
        if (opt.wallClockLimitSec > 0 && ff.cyclesTicked >= wall_check) {
            wall_check = (ff.cyclesTicked | kWallCheckMask) + 1;
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - x.wall_start;
            if (elapsed.count() > opt.wallClockLimitSec) {
                result.wallKilled = true;
                x.complete = true;
                return true;
            }
        }

        if (injector)
            injector->emitBoundaryEvents(now, opt.sink);

        // Level-2 lane manager: at every interArbiterPeriod boundary
        // the arbiter re-splits the machine's DRAM bandwidth across
        // clusters in proportion to last-window demand. Clustered
        // machines only — a flat machine has no arbiter.
        if (x.arbiter && now > 0 &&
            now % cfg.interArbiterPeriod == 0) {
            std::vector<std::uint64_t> bytes(x.ncl);
            for (unsigned k = 0; k < x.ncl; ++k)
                bytes[k] = x.engines[k]->mem().dramBytes();
            const std::vector<unsigned> &sh =
                x.arbiter->rebalance(now, bytes);
            for (unsigned k = 0; k < x.ncl; ++k)
                x.engines[k]->mem().setDramBytesPerCycle(sh[k]);
            const auto [lo, hi] = std::minmax_element(sh.begin(), sh.end());
            obs::emit(opt.sink, obs::EventKind::ClusterArbiterPlan, now,
                      kNoCore, x.arbiter->rebalances(), x.ncl, *lo, *hi);
        }

        // The window [now, horizon): the engines may tick it without
        // the coordinator, because nothing outside them acts inside
        // it. A completion at t >= now first changes an engine at tick
        // t + contextSwitchCycles + 1 (its dispatch), a spin starting
        // at t >= now trips the watchdog at t + watchdogCycles at the
        // earliest, and the table bounds everything already scheduled.
        // OI-aware dispatch scores against live resource tables, so it
        // steps one cycle at a time.
        horizon = std::min({now + cfg.contextSwitchCycles + 1, max_cycles,
                            stop_at, next_ckpt});
        if (opt.watchdogCycles)
            horizon = std::min(horizon, now + opt.watchdogCycles + 1);
        // A window ticks at most one wall-clock check interval.
        if (opt.wallClockLimitSec > 0)
            horizon = std::min(horizon, now + kWallCheckMask + 1);
        if (now > 0)
            horizon = std::min(horizon, wt.horizon(now));
        if (now == 0 || x.dispatcher->wantsOiScore())
            horizon = now + 1;

        // Idle cores (done, drained, nothing dispatched) are the only
        // ones a poll on a cycle without a completion can touch.
        for (unsigned c = 0; c < cfg.numCores; ++c)
            idle[c] = !x.done[c] && x.dispatch_at[c] == kCycleNever &&
                      x.core(c).doneEmitting() &&
                      x.eng(c).coproc().coreDrained(x.lc(c));

        // Replay the lock-step loop over the window, cycle `now` at a
        // time (each already counted as ticked), as far as the engines
        // have run; then let them run further.
        Cycle next = kCycleNever;
        while (next == kCycleNever) {
            runRound();
            for (;;) {
                Cycle known = kCycleNever;
                for (auto &eng : x.engines)
                    known = std::min(known, eng->knownUntil());
                if (now >= known)
                    break;

                const bool window_end = now == horizon - 1;
                if (window_end)
                    for (auto &eng : x.engines)
                        eng->skipTo(horizon, bucket);
                bool edge_here = false;
                for (auto &eng : x.engines) {
                    if (!eng->stopped() || eng->stopCycle() != now)
                        continue;
                    for (CoreId lcid : eng->edges()) {
                        edge[eng->id() * x.cpk + lcid] = true;
                        edge_here = true;
                    }
                }
                if (window_end || edge_here || rescan ||
                    (x.traffic && x.traffic->due(now))) {
                    drainUpTo(now);
                    serialStep(window_end);
                    if (x.complete) {
                        for (auto &eng : x.engines)
                            eng->skipTo(now + 1, bucket);
                        return true;
                    }
                }

                const Cycle after = window_end ? liveFastForward()
                                               : replayedFastForward();
                if (after >= horizon) {
                    next = after;
                    break;
                }
                if (after > now + 1) {
                    ++ff.cyclesTicked;
                    now = after;
                    continue;
                }
                // Plain ticked cycles up to the next one the replay
                // must look at, counted in O(1).
                Cycle to = std::min(known, horizon - 1);
                if (!rescan) {
                    to = std::min(to, firstDue(now + 1));
                    for (auto &eng : x.engines)
                        if (eng->stopped() && eng->stopCycle() > now &&
                            !eng->edges().empty())
                            to = std::min(to, eng->stopCycle());
                    if (opt.fastForward)
                        to = nextQuiet(now + 1, to);
                } else {
                    to = now + 1;
                }
                ff.cyclesTicked += to - now;
                now = to;
            }
        }
        now = next;
    }
    for (auto &eng : x.engines)
        eng->skipTo(now, bucket);
    drainUpTo(now);
    x.complete = true;          // Ran into the maxCycles cap.
    return true;
}

RunResult
System::finalize()
{
    if (!ctx_)
        throw std::logic_error("System::finalize: boot() first");
    Ctx &x = *ctx_;
    const unsigned bucket = x.opt.bucket;
    RunResult &result = x.result;

    result.timedOut = x.now >= x.opt.maxCycles;
    x.ff.cyclesSimulated =
        x.now < x.opt.maxCycles ? x.now + 1 : x.opt.maxCycles;
    if (x.opt.ffStats)
        *x.opt.ffStats = x.ff;
    result.cycles = std::max<Cycle>(x.last_finish, 1);
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

        for (const PhaseTrace &t : core.phases()) {
            PhaseResult pr;
            pr.name = t.name;
            pr.start = t.start;
            pr.end = t.end ? t.end : x.finish[c];
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
            cr.busyLanesTimeline.push_back(busy_bk[b] / bucket);
            cr.allocLanesTimeline.push_back(alloc_bk[b] / bucket);
        }
    }

    result.dramBytes = 0;
    result.vlSwitches = 0;
    result.plansMade = 0;
    result.laneFaults = 0;
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
    ctx_.reset();
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
System::fingerprint(const Ctx &x) const
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
    os << '#' << x.opt.maxCycles << '|' << x.opt.bucket << '|'
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
    if (!ctx_)
        throw std::logic_error("System::saveCheckpoint: boot() first");
    const Ctx &x = *ctx_;
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
        Ctx &x = *ctx_;
        ckpt::Reader r(is);
        double busy = 0.0;
        unsigned region = 0;
        std::vector<std::string> strs;
        io(x, r, busy, region, strs);
        r.finish();

        // Replay queued-workload compiles: deterministic compilation
        // reproduces byte-identical programs and array bindings.
        for (const auto &[core, q] : x.compile_log)
            compileAndBind(x, core, queue_[q].first, queue_[q].second);
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
        ctx_.reset();
        throw;
    }
}

// ------------------------------------------------------ live inspection

std::string
System::inspect(const std::string &path) const
{
    if (!ctx_)
        throw std::logic_error("System::inspect: boot() first");
    const Ctx &x = *ctx_;
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
