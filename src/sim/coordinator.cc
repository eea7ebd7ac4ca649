#include "sim/coordinator.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <fstream>

#include "ckpt/ckpt.hh"
#include "kir/analysis.hh"
#include "lanemgr/partitioner.hh"

namespace occamy
{

namespace
{

/** Cycle mask of the wall-clock check (one per 65,536). */
constexpr Cycle kWallCheckMask = 0xFFFF;

/** One cluster's slice of the shared L2: the largest power-of-two
 *  number of whole sets that fits in 1/C of it (exactly 1/C when C is
 *  a power of two), so each slice is a valid Cache geometry. */
std::uint64_t
l2SliceBytes(const CacheConfig &l2, unsigned clusters)
{
    const std::uint64_t set =
        static_cast<std::uint64_t>(l2.lineBytes) * l2.assoc;
    const std::uint64_t sets = l2.sizeBytes / clusters / set;
    return std::bit_floor(std::max<std::uint64_t>(sets, 1)) * set;
}

} // namespace

Coordinator::Coordinator(const System &s, const RunOptions &o)
    : sys(s), opt(o), cfg(s.cfg_), model(policy::model(cfg.policy)),
      ncl(cfg.numClusters), cpk(cfg.coresPerCluster())
{
    if (ncl > 1)
        arbiter = std::make_unique<ClusterArbiter>(
            ncl, cfg.dramBytesPerCycle, cfg.interArbiterPeriod);
    const std::vector<MachineConfig> views = clusterViews();
    if (!arbiter)
        cfg = views[0];

    // Traffic arrivals make entries wait for their effective arrival
    // cycle (and for admission, if a policy is installed); a plain
    // batch queue has no session and every entry is available at once.
    if (sys.has_traffic_)
        traffic = std::make_unique<traffic::Session>(
            sys.queue_meta_, cfg.numCores, sys.admission_,
            sys.admission_cap_, sys.admission_refill_, opt.sink);
    for (unsigned k = 0; k < ncl; ++k)
        engines.push_back(std::make_unique<ClusterEngine>(
            k, views[k],
            ncl == 1 ? std::string("system")
                     : "system.cluster" + std::to_string(k),
            model.fullWidthExecution(), opt.fastForward));
    // All clusters share one machine shape; the roofline used for
    // scheduling decisions is derived from cluster 0's view (== the
    // config on a flat machine).
    roofline = RooflineParams::fromConfig(engines[0]->view());

    // Fault injection (src/fault): the injector's consumable plan is a
    // single stateful stream, so it attaches to cluster 0's components
    // (the whole machine on a flat config). Null plan = fault-free, and
    // none of the hooks fire.
    if (opt.faultPlan && !opt.faultPlan->empty()) {
        injector = std::make_unique<fault::FaultInjector>(
            *opt.faultPlan, cfg.numExeBUs);
        engines[0]->coproc().setFaultInjector(injector.get());
        engines[0]->mem().setFaultInjector(injector.get());
    }

    core_prog.assign(cfg.numCores, 0);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        eng(c).addCore(std::make_unique<ScalarCore>(
            lc(c), eng(c).view(), eng(c).coproc()));
        core(c).setProgram(compileAndBind(static_cast<CoreId>(c),
                                          sys.names_[c], sys.loops_[c]));
        core_prog[c] = programs.size() - 1;
    }

    // Attach the trace sink after construction so boot-time plumbing
    // (e.g. initial lane grants) produces no events. Engines record
    // into per-engine buffers that drainUpTo() merges in cycle, then
    // cluster order, whatever the thread count and window shape.
    for (auto &e : engines) {
        e->attachSink(opt.sink);
        e->regStats();
    }

    result.cores.resize(cfg.numCores);
    total_lanes = cfg.totalLanes();
    finish.assign(cfg.numCores, 0);
    done.assign(cfg.numCores, false);

    // Every selection goes through a dispatcher; FCFS unless one was
    // installed. Disciplines that score co-placement get each queued
    // workload's first-phase behaviour pre-analyzed.
    const auto &queue = sys.queue_;
    dispatcher = sys.dispatcher_ ? sys.dispatcher_
                                 : traffic::dispatcherByName("fcfs");
    dispatched.assign(queue.size(), false);
    undispatched = queue.size();
    queue_oi.resize(queue.size());
    if (dispatcher->wantsOiScore()) {
        const MachineConfig &view = engines[0]->view();
        for (std::size_t q = 0; q < queue.size(); ++q)
            if (!queue[q].second.empty())
                queue_oi[q] = kir::phaseOI(queue[q].second.front(),
                                           view.vecCache.sizeBytes,
                                           view.l2.sizeBytes);
    }
    sched_oi.assign(cfg.numCores, PhaseOI{});
    dispatch_at.assign(cfg.numCores, kCycleNever);
    pending_wl.assign(cfg.numCores, 0);
    wall_start = std::chrono::steady_clock::now();

    limit.assign(ncl, 0);
    probes.resize(ncl);
    idle.assign(cfg.numCores, false);
    edge.assign(cfg.numCores, false);
    round_task = [this](unsigned k) {
        if (limit[k])
            engines[k]->tickWindow(limit[k]);
    };

    registerWakes();

    // Boot beacon: engine category, so kEvAll artifacts are untouched.
    // A serve daemon counts these to prove a warm-pool request paid no
    // boot cost on the request path.
    obs::emit(opt.sink, obs::EventKind::SystemBoot, 0, kNoCore,
              cfg.numCores, cfg.numExeBUs);
}

std::vector<MachineConfig>
Coordinator::clusterViews() const
{
    // Per-cluster flat views, each with its own offline static lane
    // plan (Section 7.1's static spatial sharing, and work-conserving
    // variants entitled by the same plan), resolved over the cluster's
    // own K local cores. A flat machine is the one-cluster case: its
    // view is the config itself, and the resolved plan is its plan.
    std::vector<MachineConfig> views;
    for (unsigned k = 0; k < ncl; ++k) {
        MachineConfig v = cfg;
        if (arbiter) {
            // K local cores, the per-cluster ExeBU count, this
            // cluster's initial DRAM grant, an L2 slice of at most
            // 1/C.
            v.numClusters = 1;
            v.numCores = cpk;
            v.dramBytesPerCycle = arbiter->shares()[k];
            v.l2.sizeBytes = l2SliceBytes(cfg.l2, ncl);
            v.l2.bytesPerCycle = std::max(cfg.l2.bytesPerCycle / ncl, 1u);
        }
        if (model.wantsOfflineStaticPlan() && v.staticPlan.empty()) {
            std::vector<std::vector<PhaseOI>> phase_ois(cpk);
            std::vector<bool> will_run(cpk, false);
            for (unsigned i = 0; i < cpk; ++i) {
                const unsigned g = k * cpk + i;
                for (const auto &loop : sys.loops_[g])
                    phase_ois[i].push_back(kir::phaseOI(
                        loop, v.vecCache.sizeBytes, v.l2.sizeBytes));
                will_run[i] = !sys.loops_[g].empty() || !sys.queue_.empty();
            }
            model.resolveStaticPlan(v, phase_ois, will_run);
        }
        views.push_back(std::move(v));
    }
    return views;
}

void
Coordinator::registerWakes()
{
    // An arbiter rebalance can change per-cluster DRAM grants, which
    // no component probe anticipates.
    if (arbiter)
        wakes.add(WakeSource::Arbiter, true,
                  [period = cfg.interArbiterPeriod](Cycle at) {
                      return (at / period + 1) * period;
                  });
    for (unsigned c = 0; c < cfg.numCores; ++c)
        wakes.add(WakeSource::Dispatch, false,
                  [this, c](Cycle) { return dispatch_at[c]; });
    if (opt.snapshotEvery)
        wakes.add(WakeSource::Snapshot, false,
                  [every = opt.snapshotEvery](Cycle at) {
                      return (at / every + 1) * every;
                  });
    // Fault-plan boundaries change component behaviour even when the
    // machine is otherwise quiescent, and a spinning core's watchdog
    // deadline is a state change the probes above can't see.
    if (injector)
        wakes.add(WakeSource::Fault, true,
                  [inj = injector.get()](Cycle at) {
                      return inj->nextEventAt(at);
                  });
    for (unsigned c = 0; opt.watchdogCycles && c < cfg.numCores; ++c)
        wakes.add(WakeSource::Watchdog, false,
                  [cr = &core(c), wd = opt.watchdogCycles](Cycle at) {
                      return cr->awaitingVl()
                                 ? std::max(cr->spinSince() + wd, at + 1)
                                 : kCycleNever;
                  });
    // A pending traffic arrival and an admission re-evaluation boundary
    // are state changes no component probe can see: an all-idle
    // machine waiting for work must wake exactly there. Unresolved
    // closed-loop arrivals need no candidate — their predecessor is
    // still running, so a component event precedes their resolution.
    if (traffic) {
        wakes.add(WakeSource::Arrival, false,
                  [s = traffic.get()](Cycle at) {
                      return s->arrivalWake(at);
                  });
        if (traffic->hasAdmission())
            wakes.add(WakeSource::Admission, false,
                      [s = traffic.get()](Cycle at) {
                          return s->admissionWake(at);
                      });
    }
}

const Program *
Coordinator::compileAndBind(CoreId c, const std::string &name,
                            const std::vector<kir::Loop> &loops)
{
    // A private, staggered address region per compile (distinct
    // cache-set alignment per slot), with the core's cluster-local id.
    const MachineConfig &view = eng(c).view();
    CompileOptions opts = CompileOptions::forMachine(
        view, model.perCoreFixedVl(view, lc(c)));
    Compiler compiler(opts);
    auto prog = std::make_unique<Program>(compiler.compile(name, loops));
    const unsigned slot = region++;
    Addr next = ((static_cast<Addr>(slot) + 1) << 36) +
                static_cast<Addr>(slot % cfg.numCores) * 40960;
    for (auto &arr : prog->arrays) {
        arr.base = next;
        const Addr size = arr.elems * arr.elemBytes;
        next += (size + 4095) / 4096 * 4096 + 4096;
    }
    programs.push_back(std::move(prog));
    return programs.back().get();
}

bool
Coordinator::advance(Cycle stop)
{
    if (complete)
        return true;
    stop_at = stop;
    // Periodic checkpoints pause at every multiple of the period.
    // Derived, not stored: resuming at cycle N computes the same next
    // boundary a straight run uses.
    const Cycle every =
        opt.checkpointOut.empty() ? 0 : opt.checkpointEvery;
    next_ckpt = every ? (now / every + 1) * every : kCycleNever;
    wall_check = (now | kWallCheckMask) + 1;
    // Every call re-polls idle cores first, as a restored run must:
    // the idle flags are not checkpointed.
    rescan = true;

    // The pool is only useful with more than one engine to tick.
    const unsigned tick_threads =
        std::min<unsigned>(std::max(opt.simThreads, 1u), ncl);
    if (!pool && tick_threads > 1 && now < std::min(stop_at, opt.maxCycles))
        pool = std::make_unique<TickPool>(tick_threads);

    while (now < opt.maxCycles && !complete && preTick()) {
        horizon = windowHorizon();
        // Idle cores (done, drained, nothing dispatched) are the only
        // ones a poll on a cycle without a completion can touch. Only
        // events, grants and the checkpoint write ran since the
        // engines read their live cores, and none of those drains one.
        for (unsigned c = 0; c < cfg.numCores; ++c)
            idle[c] = !done[c] && dispatch_at[c] == kCycleNever &&
                      !eng(c).live(lc(c));
        runWindow();
    }
    if (!complete && now >= opt.maxCycles) {
        for (auto &e : engines)
            e->skipTo(now);
        drainUpTo(now);
        complete = true;        // Ran into the maxCycles cap.
    }
    for (auto &e : engines)
        e->takeFf(ff);
    return complete;
}

bool
Coordinator::preTick()
{
    // Pause boundary: state is exactly "about to execute cycle `now`",
    // the same point a checkpoint captures. Checked before anything
    // else so advance(N); advance(M) ticks each cycle exactly once.
    for (auto &e : engines)
        e->beginWindow(now);
    if (now >= stop_at)
        return false;
    if (now == next_ckpt) {
        writeCheckpoint();
        next_ckpt += opt.checkpointEvery;
    }

    // Hard wall-clock kill (runner containment): checked at the first
    // window start after every 65,536 simulated cycles, so the
    // steady_clock read stays off the hot path.
    if (opt.wallClockLimitSec > 0 && now >= wall_check) {
        wall_check = (now | kWallCheckMask) + 1;
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - wall_start;
        if (elapsed.count() > opt.wallClockLimitSec) {
            result.wallKilled = true;
            complete = true;
            return false;
        }
    }

    if (injector)
        injector->emitBoundaryEvents(now, opt.sink);

    // Level-2 lane manager: at every interArbiterPeriod boundary the
    // arbiter re-splits the machine's DRAM bandwidth across clusters
    // in proportion to last-window demand.
    if (arbiter && now > 0 && now % cfg.interArbiterPeriod == 0) {
        std::vector<std::uint64_t> bytes(ncl);
        for (unsigned k = 0; k < ncl; ++k)
            bytes[k] = engines[k]->mem().dramBytes();
        const std::vector<unsigned> &sh = arbiter->rebalance(now, bytes);
        for (unsigned k = 0; k < ncl; ++k)
            engines[k]->mem().setDramBytesPerCycle(sh[k]);
        const auto [lo, hi] = std::minmax_element(sh.begin(), sh.end());
        obs::emit(opt.sink, obs::EventKind::ClusterArbiterPlan, now,
                  kNoCore, arbiter->rebalances(), ncl, *lo, *hi);
    }
    return true;
}

Cycle
Coordinator::windowHorizon() const
{
    // A completion at t >= now first changes an engine at tick t +
    // contextSwitchCycles + 1 (its dispatch), a spin starting at t >=
    // now trips the watchdog at t + watchdogCycles at the earliest, and
    // the wake table bounds everything already scheduled. OI-aware
    // dispatch scores against live resource tables, so it steps one
    // cycle at a time.
    if (now == 0 || dispatcher->wantsOiScore())
        return now + 1;
    Cycle h = std::min({now + cfg.contextSwitchCycles + 1, opt.maxCycles,
                        stop_at, next_ckpt, wakes.horizon(now)});
    if (opt.watchdogCycles)
        h = std::min(h, now + opt.watchdogCycles + 1);
    // A window ticks at most one wall-clock check interval.
    if (opt.wallClockLimitSec > 0)
        h = std::min(h, now + kWallCheckMask + 1);
    return h;
}

void
Coordinator::runWindow()
{
    // Move the cursor `now` through the cycles that need a serial step
    // (engine edges, due traffic, idle-core polls, the window's last
    // cycle) as far as every engine has run; then let them run further.
    for (;;) {
        runRound();
        Cycle known = kCycleNever;
        for (auto &e : engines)
            known = std::min(known, e->knownUntil());
        while (now < known) {
            const bool window_end = now == horizon - 1;
            if (window_end)
                for (auto &e : engines)
                    e->skipTo(horizon);
            bool edge_here = false;
            for (auto &e : engines) {
                if (!e->stopped() || e->stopCycle() != now)
                    continue;
                for (CoreId lcid : e->edges()) {
                    edge[e->id() * cpk + lcid] = true;
                    edge_here = true;
                }
            }
            if (window_end || edge_here || rescan ||
                (traffic && traffic->due(now))) {
                drainUpTo(now);
                serialStep(window_end);
                if (complete) {
                    for (auto &e : engines)
                        e->skipTo(now + 1);
                    return;
                }
            }
            if (window_end) {
                now = liveFastForward();
                return;
            }
            Cycle to = now + 1;
            if (!rescan) {
                to = std::min(known, horizon - 1);
                if (traffic)
                    to = std::min(to, traffic->firstDue(now + 1));
                for (auto &e : engines)
                    if (e->stopped() && e->stopCycle() > now)
                        to = std::min(to, e->stopCycle());
            }
            now = to;
        }
    }
}

void
Coordinator::runRound()
{
    unsigned pooled = 0;
    for (unsigned k = 0; k < ncl; ++k) {
        ClusterEngine &e = *engines[k];
        limit[k] = 0;
        if (e.stopped()) {
            if (e.stopCycle() >= now)
                continue;
            e.resume();
        }
        const bool live = e.hasLiveCore();
        const Cycle to = live ? horizon : std::min(horizon, now + 1);
        if (e.at() < to) {
            limit[k] = to;
            pooled += live;
        }
    }
    if (pool && pooled > 1)
        pool->run(ncl, round_task);
    else
        for (unsigned k = 0; k < ncl; ++k)
            round_task(k);
}

void
Coordinator::serialStep(bool window_end)
{
    // Livelock/deadlock watchdog: a <VL>-request episode (initial
    // write + Fig. 9 retry spin) that outlives the deadline is
    // escalated to the scalar fallback instead of spinning forever.
    for (unsigned c = 0;
         window_end && opt.watchdogCycles && c < cfg.numCores; ++c) {
        ScalarCore &cr = core(c);
        if (!cr.awaitingVl() || now < cr.spinSince() + opt.watchdogCycles)
            continue;
        CoProcessor &cp = eng(c).coproc();
        const VlRequestStatus st = cp.vlRequestStatus(cr.id());
        if (st.resolved && st.ok)
            continue;       // Grant landed; the spin ends next step.
        ++watchdog_trips;
        obs::emit(opt.sink, obs::EventKind::WatchdogTrip, now,
                  static_cast<CoreId>(c), cp.currentVl(cr.id()),
                  now - cr.spinSince());
        cr.watchdogEscalate(now);
    }

    // Traffic arrivals and admission verdicts due this cycle, before
    // any dispatch decision.
    if (traffic && traffic->due(now))
        undispatched -= traffic->admitArrivals(now, dispatched);

    // Dispatch queued workloads onto cores whose context switch
    // completed.
    for (unsigned c = 0; window_end && c < cfg.numCores; ++c) {
        if (dispatch_at[c] == kCycleNever || now < dispatch_at[c])
            continue;
        const CoreId cid = static_cast<CoreId>(c);
        const std::size_t q = pending_wl[c];
        const auto &[wl_name, wl_loops] = sys.queue_[q];
        compile_log.emplace_back(cid, q);
        core(c).setProgram(compileAndBind(cid, wl_name, wl_loops));
        core_prog[c] = programs.size() - 1;
        if (traffic)
            traffic->started(cid, q);
        result.batch.push_back(BatchCompletion{wl_name, cid, now, 0});
        obs::emit(opt.sink, obs::EventKind::BatchDispatch, now, cid,
                  wl_name, q);
        dispatch_at[c] = kCycleNever;
    }

    // The scheduler: every core that is done and drained with no
    // dispatch pending settles (completion, next pick).
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const bool ready = window_end ? eng(c).drained(lc(c)) &&
                                            dispatch_at[c] == kCycleNever
                                      : idle[c] || edge[c];
        if (!done[c] && ready)
            settle(c);
        else
            idle[c] = false;
        edge[c] = false;
    }
    // Idle cores must be re-polled on a quiet cycle only while a poll
    // can change something: the queue emptied, so they retire.
    // Arrivals and admissions are polled at their own (due) cycles.
    rescan = undispatched == 0 &&
             std::find(idle.begin(), idle.end(), true) != idle.end();

    if (window_end && opt.snapshotEvery && now > 0 &&
        now % opt.snapshotEvery == 0) {
        obs::MetricSnapshot snap;
        snap.cycle = now;
        for (auto &e : engines) {
            auto mv = e->memGroup().snapshot();
            snap.values.insert(snap.values.end(), mv.begin(), mv.end());
            auto cv = e->cpGroup().snapshot();
            snap.values.insert(snap.values.end(), cv.begin(), cv.end());
        }
        std::sort(snap.values.begin(), snap.values.end());
        result.snapshots.push_back(std::move(snap));
    }
    complete = std::find(done.begin(), done.end(), false) == done.end();
}

void
Coordinator::settle(unsigned c)
{
    const CoreId cid = static_cast<CoreId>(c);
    idle[c] = false;
    // Close the traffic lifecycle and the batch record of the workload
    // that just completed on this core, if any.
    if (traffic)
        traffic->completed(cid, now);
    for (auto it = result.batch.rbegin(); it != result.batch.rend(); ++it) {
        if (it->core == c && it->finished == 0) {
            it->finished = now;
            break;
        }
    }
    if (undispatched == 0) {
        done[c] = true;
        finish[c] = now;
        last_finish = std::max(last_finish, now);
        return;
    }
    // Grab the next workload (per the dispatch discipline) after the
    // OS context-switch cost. Under traffic nothing may have arrived
    // yet; the core then idles until the next arrival.
    const std::size_t q = selectNext(cid);
    if (q == sys.queue_.size()) {
        idle[c] = true;
        return;
    }
    pending_wl[c] = q;
    dispatched[q] = true;
    sched_oi[c] = queue_oi[q];
    --undispatched;
    dispatch_at[c] = now + cfg.contextSwitchCycles;
    // Cross-cluster adoption (work migration) pays the extra
    // state-movement cost and is accounted by the arbiter.
    const unsigned home = static_cast<unsigned>(q % ncl);
    const unsigned here = clusterOf(c);
    if (home != here) {
        dispatch_at[c] += cfg.clusterMigrationCycles;
        arbiter->noteMigration(home, here);
        obs::emit(opt.sink, obs::EventKind::ClusterArbiterMigrate, now,
                  cid, q, (static_cast<std::uint64_t>(home) << 32) | here);
    }
    if (traffic)
        traffic->selected(q, cid, now);
}

std::size_t
Coordinator::selectNext(CoreId c)
{
    if (traffic) {
        traffic->pending(pending);
    } else {
        pending.clear();
        for (std::size_t q = 0; q < sys.queue_.size(); ++q)
            if (!dispatched[q])
                pending.push_back(traffic::PendingJob{.queueIdx = q});
        auto foreign = [&](const traffic::PendingJob &p) {
            return p.queueIdx % ncl != clusterOf(c);
        };
        if (ncl > 1 &&
            !std::all_of(pending.begin(), pending.end(), foreign))
            std::erase_if(pending, foreign);
    }
    if (pending.empty())
        return sys.queue_.size();
    traffic::DispatchContext dc{now, c, pending, {}};
    if (dispatcher->wantsOiScore())
        dc.progressScore = [&](std::size_t i) {
            return progressWith(queue_oi[pending[i].queueIdx], c);
        };
    const std::size_t sel = dispatcher->select(dc);
    assert(sel < pending.size());
    return pending[sel].queueIdx;
}

double
Coordinator::progressWith(const PhaseOI &cand, CoreId target) const
{
    // Lane partitioning is per cluster, so the candidate is scored
    // against the other cores of the target's cluster.
    const ClusterEngine &tc = eng(target);
    std::vector<PhaseOI> ois(cpk);
    for (unsigned i = 0; i < cpk; ++i) {
        const PhaseOI &running =
            tc.coproc().resourceTable().core(static_cast<CoreId>(i)).oi;
        ois[i] = running.active() ? running
                                  : sched_oi[clusterOf(target) * cpk + i];
    }
    ois[lc(target)] = cand;
    const auto plan = greedyPartition(roofline, ois, cfg.numExeBUs);

    // Memory-bandwidth ceilings are machine-wide: co-running workloads
    // bound at the same level split it. Count them so mem+mem
    // placements are not scored as if each had the full 64 GB/s.
    std::array<unsigned, 3> bound_at{0, 0, 0};
    std::vector<bool> membound(ois.size(), false);
    for (std::size_t i = 0; i < ois.size(); ++i) {
        if (!ois[i].active() || plan[i] == 0)
            continue;
        const double ap = attainable(roofline, ois[i], plan[i]);
        const double ceiling =
            memBandwidth(roofline, ois[i].level) * ois[i].mem;
        if (ap >= ceiling - 1e-9) {
            membound[i] = true;
            ++bound_at[static_cast<unsigned>(ois[i].level)];
        }
    }

    double total = 0.0;
    for (std::size_t i = 0; i < ois.size(); ++i) {
        if (!ois[i].active())
            continue;
        const double solo = attainable(roofline, ois[i], cfg.numExeBUs);
        if (solo <= 0)
            continue;
        double ap = attainable(roofline, ois[i], plan[i]);
        if (membound[i])
            ap /= bound_at[static_cast<unsigned>(ois[i].level)];
        total += ap / solo;
    }
    return total;
}

Cycle
Coordinator::fastForwardFrom()
{
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
    const auto [w, s] = wakes.evaluate(now);
    consider(w, s);
    consider(stop_at, WakeSource::Checkpoint);
    consider(next_ckpt, WakeSource::Checkpoint);
    if (wake <= now + 1)
        return now + 1;

    // Nothing can happen before `wake`; a machine with no pending event
    // at all (wake == kCycleNever) matches the ticked run's spin to the
    // cap, so jump straight there and time out.
    Cycle target = wake;
    if (target >= opt.maxCycles) {
        target = opt.maxCycles;
        why = WakeSource::Cap;
    }
    const Cycle span = target - now - 1;
    if (span == 0)
        return now + 1;
    drainUpTo(now);
    obs::emit(opt.sink, obs::EventKind::SchedFastForward, now, kNoCore,
              span, static_cast<std::uint64_t>(why));
    return target;
}

Cycle
Coordinator::liveFastForward()
{
    if (!opt.fastForward)
        return now + 1;
    bool quiet = true;
    for (unsigned k = 0; k < ncl; ++k)
        quiet &= engines[k]->probeLive(now, &probes[k]);
    if (!quiet)
        return now + 1;
    for (unsigned k = 0; k < ncl; ++k)
        engines[k]->markQuiet(probes[k]);
    return fastForwardFrom();
}

void
Coordinator::drainUpTo(Cycle upto)
{
    for (;;) {
        Cycle c = kCycleNever;
        for (const auto &e : engines)
            c = std::min(c, e->nextEventCycle());
        if (c > upto)
            return;
        for (auto &e : engines)
            e->drainEventsUpTo(c);
    }
}

void
Coordinator::writeCheckpoint()
{
    for (auto &e : engines)
        e->takeFf(ff);
    std::ofstream os(opt.checkpointOut, std::ios::binary | std::ios::trunc);
    if (!os)
        throw ckpt::Error("cannot open checkpoint file: " +
                          opt.checkpointOut);
    sys.saveCheckpoint(os);
    obs::emit(opt.sink, obs::EventKind::CheckpointSave, now, kNoCore,
              static_cast<std::uint64_t>(os.tellp()), 0);
}

} // namespace occamy
