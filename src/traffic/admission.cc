/**
 * @file
 * The four stock admission disciplines and their registry. Every
 * decision is a pure function of AdmissionContext (simulated state
 * only), so admission-controlled sweeps stay byte-identical across
 * runner thread counts and fast-forward settings.
 */

#include "traffic/admission.hh"

#include <memory>

namespace occamy::traffic
{

const char *
admissionDecisionName(AdmissionDecision d)
{
    switch (d) {
      case AdmissionDecision::Admit: return "admit";
      case AdmissionDecision::Defer: return "defer";
      case AdmissionDecision::Shed:  return "shed";
    }
    return "?";
}

Cycle
admissionBackoff(unsigned defer_count)
{
    constexpr Cycle kBase = 64;
    constexpr Cycle kMax = 65536;
    if (defer_count >= 10)      // 64 << 10 == kMax; avoid UB past it.
        return kMax;
    const Cycle b = kBase << defer_count;
    return b < kMax ? b : kMax;
}

namespace
{

/** Today's behavior: everything is admitted the cycle it arrives.
 *  Installed-but-"none" still never happens in practice — the runner
 *  skips setAdmission entirely for "none" so goldens stay
 *  byte-identical — but the policy exists so "none" is a first-class
 *  registry citizen for --list-admission and sweeps. */
class NoneAdmission final : public AdmissionPolicy
{
  public:
    NoneAdmission()
        : AdmissionPolicy("none",
                          "admit everything (no admission control)")
    {
    }

    AdmissionDecision
    decide(const AdmissionContext &) const override
    {
        return AdmissionDecision::Admit;
    }
};

/** Bounded per-tenant concurrency: a tenant may hold at most `cap`
 *  admitted-but-unfinished jobs. Over the bound, candidates wait
 *  (defer) — never shed, so job conservation is trivial. */
class StaticCapAdmission final : public AdmissionPolicy
{
  public:
    StaticCapAdmission()
        : AdmissionPolicy(
              "static-cap",
              "bound in-flight jobs per tenant (defer over cap)")
    {
    }

    AdmissionDecision
    decide(const AdmissionContext &ctx) const override
    {
        if (ctx.cap != 0 && ctx.inFlight >= ctx.cap)
            return AdmissionDecision::Defer;
        return AdmissionDecision::Admit;
    }
};

/** Per-tenant rate cap: admission consumes one token; the Session
 *  refills one token per tenant mean-gap period (deterministic lazy
 *  integer refill), capping each tenant at its configured arrival
 *  rate with bucket-sized bursts. A candidate already past its
 *  deadline is shed instead of burning a token on guaranteed SLO
 *  failure. */
class TokenBucketAdmission final : public AdmissionPolicy
{
  public:
    TokenBucketAdmission()
        : AdmissionPolicy(
              "token-bucket",
              "per-tenant rate cap with deterministic refill")
    {
    }

    bool wantsTokens() const override { return true; }

    AdmissionDecision
    decide(const AdmissionContext &ctx) const override
    {
        if (ctx.deadline != kCycleNever && ctx.now > ctx.deadline)
            return AdmissionDecision::Shed;
        if (ctx.tokens == 0)
            return AdmissionDecision::Defer;
        return AdmissionDecision::Admit;
    }
};

/** Deadline-feasibility prediction: estimate queue wait as backlog
 *  depth x mean observed service time / cores, add this class's
 *  recent service EMA, and shed candidates that cannot finish inside
 *  their budget anyway — protecting the SLOs of jobs that still can.
 *  Jobs without a deadline are always admitted (nothing to protect or
 *  violate). */
class SloAwareAdmission final : public AdmissionPolicy
{
  public:
    SloAwareAdmission()
        : AdmissionPolicy(
              "slo-aware",
              "shed jobs predicted to miss their SLO budget")
    {
    }

    AdmissionDecision
    decide(const AdmissionContext &ctx) const override
    {
        if (ctx.deadline == kCycleNever)
            return AdmissionDecision::Admit;
        if (ctx.now > ctx.deadline)
            return AdmissionDecision::Shed;

        // Service estimate: the observed per-class EMA, else the
        // cross-class mean. estCost is deliberately NOT a fallback —
        // it is in abstract demand units, not cycles, so comparing it
        // against a cycle deadline would shed feasible jobs wholesale.
        const Cycle service = ctx.classServiceEma ? ctx.classServiceEma
                                                  : ctx.meanServiceEma;
        if (service == 0) {
            // No completion observed yet: admit while the queue is
            // shallow (they execute immediately and become the
            // evidence), defer the backlog — shedding needs evidence,
            // and the deferred jobs get re-evaluated against real
            // EMAs once the first admissions finish.
            return ctx.readyJobs <= ctx.cores ? AdmissionDecision::Admit
                                              : AdmissionDecision::Defer;
        }

        const unsigned cores = ctx.cores ? ctx.cores : 1;
        const Cycle wait = static_cast<Cycle>(ctx.readyJobs) *
                           ctx.meanServiceEma / cores;

        if (ctx.now + wait + service > ctx.deadline)
            return AdmissionDecision::Shed;
        return AdmissionDecision::Admit;
    }
};

} // namespace

const std::vector<const AdmissionPolicy *> &
allAdmissionPolicies()
{
    static const std::vector<std::unique_ptr<const AdmissionPolicy>>
        owned = [] {
            std::vector<std::unique_ptr<const AdmissionPolicy>> v;
            v.emplace_back(std::make_unique<NoneAdmission>());
            v.emplace_back(std::make_unique<StaticCapAdmission>());
            v.emplace_back(std::make_unique<TokenBucketAdmission>());
            v.emplace_back(std::make_unique<SloAwareAdmission>());
            return v;
        }();
    static const std::vector<const AdmissionPolicy *> ps = [] {
        std::vector<const AdmissionPolicy *> v;
        for (const auto &p : owned)
            v.push_back(p.get());
        return v;
    }();
    return ps;
}

const AdmissionPolicy *
admissionByName(std::string_view name)
{
    for (const AdmissionPolicy *p : allAdmissionPolicies())
        if (name == p->key())
            return p;
    return nullptr;
}

} // namespace occamy::traffic
