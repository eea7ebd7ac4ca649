#include "traffic/session.hh"

#include <algorithm>
#include <ostream>

#include "ckpt/ckpt.hh"

namespace occamy::traffic
{

Session::Session(const std::vector<Arrival> &queue, unsigned cores,
                 const AdmissionPolicy *admission, unsigned cap,
                 Cycle refillPeriod, obs::EventSink *sink)
    : jobs_(queue.size()), core_job_(cores, kNoJob), cores_(cores),
      sink_(sink), unarrived_(queue.size()), admission_(admission),
      cap_(cap)
{
    // Class table sorted by name, so the "admit" section's EMA order
    // is deterministic; each job keeps its class index.
    for (const Arrival &a : queue)
        classes_.push_back(a.workload);
    std::sort(classes_.begin(), classes_.end());
    classes_.erase(std::unique(classes_.begin(), classes_.end()),
                   classes_.end());

    unsigned tenants = 1;
    for (std::size_t q = 0; q < queue.size(); ++q) {
        const Arrival &a = queue[q];
        Job &j = jobs_[q];
        j.tenant = a.tenant;
        j.sloBudget = a.sloBudget;
        j.thinkGap = a.thinkGap;
        j.estCost = a.estCost;
        j.cls = static_cast<std::uint32_t>(
            std::lower_bound(classes_.begin(), classes_.end(),
                             a.workload) -
            classes_.begin());
        // Closed-loop entries resolve their arrival when the
        // predecessor completes (or is shed).
        if (a.dependsOn == kNoJob) {
            j.arrive = a.arriveAt;
            next_arrival_ = std::min(next_arrival_, a.arriveAt);
        } else {
            jobs_[a.dependsOn].successor = q;
        }
        tenants = std::max(tenants, a.tenant + 1);
    }

    tenants_.resize(tenants);
    class_ema_.assign(classes_.size(), 0);
    if (admission_ && admission_->wantsTokens()) {
        refill_period_ = refillPeriod ? refillPeriod : 100'000;
        // Buckets start full: a tenant may burst up to `cap` jobs
        // before the per-period refill becomes the binding rate.
        for (Tenant &t : tenants_)
            t.tokens = cap_;
    }
}

std::size_t
Session::admitArrivals(Cycle now, std::vector<bool> &dispatched)
{
    if (next_arrival_ <= now)
        arrivalPass(now);
    if (admission_ && next_admission_ <= now)
        return admissionPass(now, dispatched);
    return 0;
}

void
Session::arrivalPass(Cycle now)
{
    // Entries whose effective cycle has come become visible this cycle,
    // before any dispatch decision, so a job arriving at `now` is
    // immediately schedulable.
    Cycle next = kCycleNever;
    for (std::size_t q = 0; q < jobs_.size(); ++q) {
        Job &j = jobs_[q];
        if (j.arrived)
            continue;
        if (j.arrive > now) {
            next = std::min(next, j.arrive);
            continue;
        }
        j.arrived = true;
        --unarrived_;
        if (admission_) {
            ++ready_;
            next_admission_ = now;  // Evaluate on sight.
        }
        obs::emit(sink_, obs::EventKind::JobArrival, now, kNoCore,
                  classes_[j.cls],
                  (static_cast<std::uint64_t>(j.tenant) << 32) | q);
    }
    next_arrival_ = next;
}

std::size_t
Session::admissionPass(Cycle now, std::vector<bool> &dispatched)
{
    // Verdicts for visible, unlatched candidates whose backoff expired,
    // before any dispatch decision, so an admitted job is dispatchable
    // the same cycle it would be without admission control.
    std::size_t shed = 0;
    Cycle next = kCycleNever;
    for (std::size_t q = 0; q < jobs_.size(); ++q) {
        Job &j = jobs_[q];
        if (j.shed || !j.arrived || j.latched)
            continue;
        if (j.deferUntil > now) {
            next = std::min(next, j.deferUntil);
            continue;
        }
        Tenant &t = tenants_[j.tenant];
        // Deterministic lazy token refill: one token per tenant per
        // period, capped at the bucket size.
        if (refill_period_) {
            const std::uint64_t add =
                (now - t.lastRefill) / refill_period_;
            if (add) {
                t.tokens = std::min<std::uint64_t>(t.tokens + add, cap_);
                t.lastRefill += add * refill_period_;
            }
        }
        AdmissionContext ac;
        ac.now = now;
        ac.tenant = j.tenant;
        ac.sloBudget = j.sloBudget;
        if (j.sloBudget != kCycleNever)
            ac.deadline = j.arrive + j.sloBudget;
        ac.estCost = static_cast<Cycle>(j.estCost);
        ac.classServiceEma = class_ema_[j.cls];
        ac.meanServiceEma = mean_ema_;
        ac.readyJobs = ready_;
        ac.inFlight = t.inFlight;
        ac.tokens = t.tokens;
        ac.overloaded = overloaded_;
        ac.cores = cores_;
        ac.deferCount = j.defers;
        ac.cap = cap_;

        switch (admission_->decide(ac)) {
          case AdmissionDecision::Admit:
            // One-time latch; tokens are consumed here, at admission,
            // never at dispatch.
            j.latched = true;
            ++t.inFlight;
            if (admission_->wantsTokens() && t.tokens > 0)
                --t.tokens;
            break;
          case AdmissionDecision::Defer: {
            const Cycle backoff = admissionBackoff(j.defers);
            ++j.defers;
            ++defer_total_;
            j.deferUntil = now + backoff;
            next = std::min(next, j.deferUntil);
            obs::emit(sink_, obs::EventKind::JobDefer, now, kNoCore, q,
                      backoff);
            break;
          }
          case AdmissionDecision::Shed:
            j.shed = true;
            dispatched[q] = true;
            ++shed;
            --ready_;
            ++shed_total_;
            obs::emit(
                sink_, obs::EventKind::JobShed, now, kNoCore, q,
                (static_cast<std::uint64_t>(j.tenant) << 32) | j.defers);
            // The simulated client carries on after a rejection, so no
            // chain (and no run) ever hangs on a shed predecessor.
            releaseSuccessor(q, now);
            break;
        }
    }
    next_admission_ = next;
    updateOverload(now);
    return shed;
}

void
Session::releaseSuccessor(std::size_t q, Cycle now)
{
    const std::size_t dep = jobs_[q].successor;
    if (dep == kNoJob)
        return;
    jobs_[dep].arrive = now + jobs_[dep].thinkGap;
    next_arrival_ = std::min(next_arrival_, jobs_[dep].arrive);
}

void
Session::pending(std::vector<PendingJob> &out) const
{
    out.clear();
    for (std::size_t q = 0; q < jobs_.size(); ++q) {
        const Job &j = jobs_[q];
        if (j.gone() || !j.arrived || (admission_ && !j.latched))
            continue;
        PendingJob pj;
        pj.queueIdx = q;
        pj.arrived = j.arrive;
        pj.tenant = j.tenant;
        pj.estCost = j.estCost;
        if (j.sloBudget != kCycleNever)
            pj.deadline = j.arrive + j.sloBudget;
        out.push_back(pj);
    }
}

void
Session::selected(std::size_t q, CoreId core, Cycle now)
{
    Job &j = jobs_[q];
    j.admit = now;
    obs::emit(sink_, obs::EventKind::JobAdmit, now, core, q,
              now - j.arrive);
    if (!admission_)
        return;
    --ready_;
    delay_ring_[delay_n_ % delay_ring_.size()] = now - j.arrive;
    ++delay_n_;
    updateOverload(now);
}

void
Session::completed(CoreId core, Cycle now)
{
    const std::size_t q = core_job_[core];
    if (q == kNoJob)
        return;
    core_job_[core] = kNoJob;
    Job &j = jobs_[q];
    j.finish = now;
    const Cycle lat = now - j.arrive;
    obs::emit(sink_, obs::EventKind::JobComplete, now, core, q, lat);
    if (j.sloBudget != kCycleNever && lat > j.sloBudget) {
        ++slo_violations_;
        obs::emit(sink_, obs::EventKind::SloViolation, now, core, q,
                  lat - j.sloBudget);
    }
    releaseSuccessor(q, now);
    if (!admission_)
        return;
    // The tenant's slot frees, and the observed service time (dispatch
    // decision to completion) feeds the per-class and mean EMAs the
    // slo-aware policy predicts with. Integer EMA, alpha = 1/4.
    Tenant &t = tenants_[j.tenant];
    if (t.inFlight > 0)
        --t.inFlight;
    const Cycle service = now - j.admit;
    Cycle &ema = class_ema_[j.cls];
    ema = ema ? (3 * ema + service) / 4 : service;
    mean_ema_ = mean_ema_ ? (3 * mean_ema_ + service) / 4 : service;
}

Cycle
Session::delayP95() const
{
    // p95 queueing delay over the ring of recent picks (0 until any
    // sample) — the overload detector's latency signal.
    const std::size_t n =
        std::min<std::size_t>(delay_n_, delay_ring_.size());
    if (n == 0)
        return 0;
    std::array<Cycle, 32> tmp{};
    std::copy_n(delay_ring_.begin(), n, tmp.begin());
    std::sort(tmp.begin(), tmp.begin() + n);
    const std::size_t rank = std::max<std::size_t>((95 * n + 99) / 100, 1);
    return tmp[rank - 1];
}

void
Session::updateOverload(Cycle now)
{
    // Enter/exit hysteresis: trip when the ready backlog reaches 4x the
    // core count or the p95 queueing delay exceeds 4x the mean service
    // EMA; exit only once the backlog drains to <= cores AND the p95
    // falls back to <= 2x — the asymmetric thresholds prevent flapping.
    const Cycle p95 = delayP95();
    if (!overloaded_) {
        const bool deep = ready_ >= 4ull * cores_;
        const bool slow = mean_ema_ > 0 && p95 > 4 * mean_ema_;
        if (!deep && !slow)
            return;
        overloaded_ = true;
        ++overload_enters_;
        obs::emit(sink_, obs::EventKind::OverloadEnter, now, kNoCore,
                  ready_, p95);
    } else if (ready_ <= cores_ &&
               (mean_ema_ == 0 || p95 <= 2 * mean_ema_)) {
        overloaded_ = false;
        obs::emit(sink_, obs::EventKind::OverloadExit, now, kNoCore,
                  ready_, p95);
    }
}

template <class Self, class Ar>
void
Session::io(Self &s, Ar &ar)
{
    ar.section("traffic");
    ar.same(s.jobs_.size(), "checkpoint traffic queue length mismatch");
    for (auto &j : s.jobs_) {
        ar.u64(j.arrive);
        ar.b(j.arrived);
        ar.u64(j.admit);
        ar.u64(j.finish);
    }
    ar.u64(s.unarrived_);
    ar.u64(s.next_arrival_);
    ar.u64(s.slo_violations_);
    for (auto &q : s.core_job_)
        ar.u64(q);

    // Admission state exists only with a policy installed, so
    // admission-off checkpoints keep their exact byte layout.
    if (!s.admission_)
        return;
    ar.section("admit");
    ar.same(s.jobs_.size(), "checkpoint admission queue length mismatch");
    for (auto &j : s.jobs_) {
        ar.b(j.latched);
        ar.b(j.shed);
        ar.u64(j.deferUntil);
        ar.u32(j.defers);
    }
    ar.same(s.tenants_.size(),
            "checkpoint admission tenant count mismatch");
    for (auto &t : s.tenants_) {
        ar.u32(t.inFlight);
        ar.u64(t.tokens);
        ar.u64(t.lastRefill);
    }
    for (auto &d : s.delay_ring_)
        ar.u64(d);
    ar.u32(s.delay_n_);
    ar.same(s.classes_.size(), "checkpoint admission class table mismatch");
    for (std::size_t k = 0; k < s.classes_.size(); ++k) {
        ar.same(s.classes_[k], "checkpoint admission class name mismatch");
        ar.u64(s.class_ema_[k]);
    }
    ar.u64(s.mean_ema_);
    ar.u64(s.ready_);
    ar.b(s.overloaded_);
    ar.u64(s.overload_enters_);
    ar.u64(s.shed_total_);
    ar.u64(s.defer_total_);
    ar.u64(s.next_admission_);
}

void Session::save(ckpt::Writer &w) const { io(*this, w); }
void Session::load(ckpt::Reader &r) { io(*this, r); }

std::vector<JobRecord>
Session::records() const
{
    std::vector<JobRecord> out(jobs_.size());
    for (std::size_t q = 0; q < jobs_.size(); ++q) {
        const Job &j = jobs_[q];
        JobRecord &jr = out[q];
        jr.tenant = j.tenant;
        jr.arrive = j.arrive;
        jr.admit = j.admit;
        jr.finish = j.finish;
        jr.sloBudget = j.sloBudget;
        jr.shed = j.shed;
        jr.defers = j.defers;
    }
    return out;
}

void
Session::regStats(stats::Group &g) const
{
    auto add = [&g](const char *name, double v, const char *desc) {
        g.addFormula(name, [v] { return v; }, desc);
    };
    const auto completed = std::count_if(
        jobs_.begin(), jobs_.end(),
        [](const Job &j) { return j.finish != kCycleNever; });
    add("traffic_jobs", static_cast<double>(jobs_.size()),
        "traffic arrivals enqueued");
    add("traffic_completed", static_cast<double>(completed),
        "traffic jobs that ran to completion");
    add("slo_violations", static_cast<double>(slo_violations_),
        "completions whose latency exceeded the SLO budget");
    if (!admission_)
        return;
    add("jobs_shed", static_cast<double>(shed_total_),
        "arrivals rejected by admission control");
    add("job_deferrals", static_cast<double>(defer_total_),
        "admission defer verdicts issued");
    add("overload_enters", static_cast<double>(overload_enters_),
        "times the overload detector tripped");
}

void
Session::printState(std::ostream &os) const
{
    os << "traffic_unarrived " << unarrived_ << '\n'
       << "slo_violations " << slo_violations_ << '\n';
    if (admission_)
        os << "admission " << admission_->key() << '\n'
           << "admission_cap " << cap_ << '\n'
           << "admission_ready " << ready_ << '\n'
           << "overloaded " << (overloaded_ ? 1 : 0) << '\n'
           << "jobs_shed " << shed_total_ << '\n'
           << "job_deferrals " << defer_total_ << '\n'
           << "overload_enters " << overload_enters_ << '\n';
}

} // namespace occamy::traffic
