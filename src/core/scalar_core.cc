#include "core/scalar_core.hh"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "ckpt/ckpt.hh"
#include "common/log.hh"

namespace occamy
{

ScalarCore::ScalarCore(CoreId id, const MachineConfig &cfg,
                       CoProcessor &coproc)
    : id_(id), cfg_(cfg), coproc_(coproc)
{
}

void
ScalarCore::recordVl(Cycle now, obs::EventKind kind, std::uint64_t a,
                     std::uint64_t b) const
{
    obs::emit(sink_, kind, now, id_, a, b);
}

void
ScalarCore::setProgram(const Program *prog)
{
    // Phase ids must stay unique across successively dispatched
    // programs so per-phase statistics do not alias.
    if (prog_)
        phase_id_base_ += static_cast<unsigned>(prog_->loops.size());
    prog_ = prog;
    loop_idx_ = 0;
    inst_idx_ = 0;
    elems_done_ = 0;
    state_ = prog_ && !prog_->loops.empty() ? State::Idle : State::Done;
}

DynInst
ScalarCore::makeDyn(const Inst &si, Cycle now) const
{
    DynInst d;
    d.op = si.op;
    d.core = id_;
    d.phaseId = static_cast<std::uint16_t>(phase_id_base_ + loop_idx_);
    d.dstArch = si.dst;
    d.srcArch = si.src;
    d.nsrc = si.nsrc;
    const unsigned elems_per_bu =
        state_ == State::Done ? kLanesPerBu : curLoop().elemsPerBu;
    const unsigned lanes_per_elem_x4 = 4 * kLanesPerBu / elems_per_bu;
    d.vlBus = static_cast<std::uint16_t>(current_vl_);
    d.activeElems = static_cast<std::uint16_t>(
        active_elems_ ? active_elems_ : current_vl_ * elems_per_bu);
    d.activeLanes = static_cast<std::uint16_t>(
        (d.activeElems * lanes_per_elem_x4 + 3) / 4);
    d.oi = si.oi;
    d.imm = si.imm;
    d.vlFromDecision = si.vlFromDecision;
    d.enqueueCycle = now;

    // Reduction-accumulator rotation (4 independent partial sums).
    if (si.rotateAcc) {
        const std::int16_t rot = static_cast<std::int16_t>(iter_index_ & 3);
        if (d.dstArch >= 28)
            d.dstArch = static_cast<std::int16_t>(28 + rot);
        for (unsigned i = 0; i < d.nsrc; ++i)
            if (d.srcArch[i] >= 28)
                d.srcArch[i] = static_cast<std::int16_t>(28 + rot);
    }

    if (isVMem(si.op)) {
        const ArrayInfo &arr = prog_->arrays.at(si.arrayId);
        std::int64_t idx =
            static_cast<std::int64_t>(elems_done_) * si.stride +
            si.elemOffset;
        if (arr.streaming) {
            idx = std::max<std::int64_t>(idx, 0);
        } else {
            const auto n = static_cast<std::int64_t>(arr.elems);
            idx = ((idx % n) + n) % n;
        }
        d.addr = arr.base + static_cast<Addr>(idx) * arr.elemBytes;
        d.stride = si.stride;
        d.elemBytes = arr.elemBytes;
        d.bytes = std::max<std::uint32_t>(
            d.activeElems * arr.elemBytes, arr.elemBytes);
    }
    return d;
}

bool
ScalarCore::emit(const Inst &si, Cycle now, unsigned &budget)
{
    if (isEmSimd(si.op)) {
        if (!coproc_.canEnqueueEmSimd(id_))
            return false;
        coproc_.enqueueEmSimd(makeDyn(si, now));
    } else {
        assert(isSve(si.op));
        if (!coproc_.canEnqueue(id_))
            return false;
        coproc_.enqueue(makeDyn(si, now));
    }
    --budget;
    return true;
}

void
ScalarCore::enterLoop(Cycle now)
{
    PhaseTrace t;
    t.name = curLoop().phase.name;
    t.phaseId = phase_id_base_ + static_cast<unsigned>(loop_idx_);
    t.start = now;
    t.firstVl = current_vl_;
    phases_.push_back(t);
    inst_idx_ = 0;
    elems_done_ = 0;
    iter_index_ = 0;
    state_ = State::Prologue;
    obs::emit(sink_, obs::EventKind::PhaseBegin, now, id_, t.name,
              t.phaseId);
    OCCAMY_LOG(now, "Core", "core%u enters phase %s", id_, t.name.c_str());
}

void
ScalarCore::finishLoop(Cycle now)
{
    phases_.back().end = now;
    if (phases_.back().lastVl == 0)
        phases_.back().lastVl = current_vl_;
    obs::emit(sink_, obs::EventKind::PhaseEnd, now, id_,
              phases_.back().name, phases_.back().phaseId);
    ++loop_idx_;
    state_ = State::Idle;
}

bool
ScalarCore::step(Cycle now, unsigned &budget)
{
    switch (state_) {
      case State::Done:
        return false;

      case State::Idle:
        if (loop_idx_ >= prog_->loops.size()) {
            state_ = State::Done;
            return false;
        }
        enterLoop(now);
        return true;

      case State::Prologue: {
        const auto &pro = curLoop().prologue;
        while (inst_idx_ < pro.size()) {
            const Inst &si = pro[inst_idx_];
            if (!emit(si, now, budget))
                return false;
            ++inst_idx_;
            if (si.op == Opcode::MsrVL) {
                vl_before_request_ = current_vl_;
                recordVl(now, obs::EventKind::VlRequest, current_vl_,
                         si.vlFromDecision ? 0 : si.imm);
                await_since_ = now;
                spin_since_ = now;
                state_ = State::AwaitVl;
                return false;
            }
            if (budget == 0)
                return false;
        }
        // Prologue finished: multi-version dispatch (Section 6.3).
        if (curLoop().phase.tripElems < curLoop().scalarThreshold &&
            !curLoop().scalarBody.empty()) {
            phases_.back().scalarVersion = true;
            state_ = State::ScalarLoop;
        } else {
            state_ = State::IterStart;
        }
        return true;
      }

      case State::AwaitVl:
      case State::AwaitReconfig:
      case State::AwaitRelease: {
        const VlRequestStatus st = coproc_.vlRequestStatus(id_);
        if (!st.resolved)
            return false;
        coproc_.ackVlRequest(id_);
        recordVl(now, obs::EventKind::VlResolve, st.ok ? 1 : 0,
                 coproc_.currentVl(id_));
        reconfig_wait_cycles_ += now - await_since_;
        if (!st.ok) {
            // <status> == 0: spin, re-writing <VL> (Fig. 9 retry loop).
            const Inst *msr = nullptr;
            if (state_ == State::AwaitVl)
                msr = &curLoop().prologue[inst_idx_ - 1];
            else if (state_ == State::AwaitReconfig)
                msr = &curLoop().reconfig.back();
            else
                msr = &curLoop().epilogue[inst_idx_ - 1];
            if (budget == 0 || !emit(*msr, now, budget))
                return false;
            recordVl(now, obs::EventKind::VlRequest, current_vl_,
                     msr->vlFromDecision ? 0 : msr->imm);
            await_since_ = now;
            return false;
        }
        const unsigned new_vl = coproc_.currentVl(id_);
        const bool changed = new_vl != vl_before_request_;
        current_vl_ = new_vl;
        active_elems_ = current_vl_ * curLoop().elemsPerBu;
        if (changed)
            ++reconfig_events_;
        if (state_ != State::AwaitRelease && !phases_.empty()) {
            if (phases_.back().firstVl == 0)
                phases_.back().firstVl = current_vl_;
            phases_.back().lastVl = current_vl_;
        }
        if (state_ == State::AwaitVl) {
            state_ = State::Prologue;
        } else if (state_ == State::AwaitReconfig) {
            inst_idx_ = 0;
            state_ = changed ? State::Reinit : State::Body;
        } else {
            state_ = State::Epilogue;
        }
        return true;
      }

      case State::IterStart: {
        const VectorLoop &loop = curLoop();
        if (elems_done_ >= loop.phase.tripElems) {
            inst_idx_ = 0;
            state_ = State::Epilogue;
            return true;
        }
        // Lazy partition point: run the monitor (elastic only), every
        // monitorPeriod-th iteration.
        if (!loop.monitor.empty() &&
            iter_index_ % loop.monitorPeriod == 0) {
            while (inst_idx_ < loop.monitor.size()) {
                if (budget == 0 ||
                    !emit(loop.monitor[inst_idx_], now, budget))
                    return false;
                ++monitor_insts_;
                ++inst_idx_;
            }
            // Speculative <decision> read (Section 4.1.1).
            const unsigned d = coproc_.decision(id_);
            if (d > 0 && d != current_vl_) {
                inst_idx_ = 0;
                // Emit the reconfiguration MSR <VL>, <decision>.
                if (budget == 0 ||
                    !emit(loop.reconfig.back(), now, budget)) {
                    // Retry the whole monitor next cycle (harmless).
                    return false;
                }
                vl_before_request_ = current_vl_;
                recordVl(now, obs::EventKind::VlRequest, current_vl_, 0);
                await_since_ = now;
                spin_since_ = now;
                state_ = State::AwaitReconfig;
                return false;
            }
        }
        const std::uint64_t remaining =
            loop.phase.tripElems - elems_done_;
        active_elems_ = static_cast<unsigned>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(current_vl_) * loop.elemsPerBu,
            remaining));
        inst_idx_ = 0;
        state_ = State::Body;
        return true;
      }

      case State::Reinit: {
        const auto &re = curLoop().reinit;
        while (inst_idx_ < re.size()) {
            if (budget == 0 || !emit(re[inst_idx_], now, budget))
                return false;
            ++reinit_insts_;
            ++inst_idx_;
        }
        const std::uint64_t remaining =
            curLoop().phase.tripElems - elems_done_;
        active_elems_ = static_cast<unsigned>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(current_vl_) * curLoop().elemsPerBu,
            remaining));
        inst_idx_ = 0;
        state_ = State::Body;
        return true;
      }

      case State::Body: {
        const auto &body = curLoop().body;
        while (inst_idx_ < body.size()) {
            if (budget == 0 || !emit(body[inst_idx_], now, budget))
                return false;
            ++inst_idx_;
        }
        elems_done_ += active_elems_;
        ++iter_index_;
        inst_idx_ = 0;
        state_ = State::IterStart;
        return true;
      }

      case State::ScalarLoop: {
        // Multi-version fallback: executed entirely in the scalar
        // pipeline at 4 instructions per cycle, no co-processor use.
        const auto insts = static_cast<std::uint64_t>(
            curLoop().scalarBody.size());
        const std::uint64_t cycles =
            (curLoop().phase.tripElems * insts + 3) / 4;
        stall_until_ = now + cycles;
        elems_done_ = curLoop().phase.tripElems;
        inst_idx_ = 0;
        state_ = State::Epilogue;
        return false;
      }

      case State::Epilogue: {
        const auto &epi = curLoop().epilogue;
        while (inst_idx_ < epi.size()) {
            const Inst &si = epi[inst_idx_];
            if (budget == 0 || !emit(si, now, budget))
                return false;
            ++inst_idx_;
            if (si.op == Opcode::MsrVL) {
                vl_before_request_ = current_vl_;
                recordVl(now, obs::EventKind::VlRequest, current_vl_,
                         si.vlFromDecision ? 0 : si.imm);
                await_since_ = now;
                spin_since_ = now;
                state_ = State::AwaitRelease;
                return false;
            }
        }
        finishLoop(now);
        return true;
      }
    }
    return false;
}

void
ScalarCore::watchdogEscalate(Cycle now)
{
    assert(awaitingVl());
    coproc_.cancelVlRequest(id_);

    // Bounded retry exceeded: give up on the SIMD version of this phase
    // and run the remaining elements through the multi-version scalar
    // fallback (Section 6.3), 4 scalar instructions per cycle. In the
    // epilogue (AwaitRelease) there is no remaining work — the release
    // itself is abandoned and the epilogue simply continues.
    const VectorLoop &loop = curLoop();
    phases_.back().scalarVersion = true;
    const std::uint64_t remaining =
        loop.phase.tripElems > elems_done_
            ? loop.phase.tripElems - elems_done_
            : 0;
    const std::uint64_t insts_per_elem = loop.scalarBody.empty()
                                             ? loop.body.size()
                                             : loop.scalarBody.size();
    stall_until_ = now + (remaining * insts_per_elem + 3) / 4;
    elems_done_ = loop.phase.tripElems;
    if (state_ != State::AwaitRelease)
        inst_idx_ = 0;
    state_ = State::Epilogue;
    blocked_ = false;
    OCCAMY_LOG(now, "Core",
               "core%u watchdog escalation: scalar fallback for %llu elems",
               id_, static_cast<unsigned long long>(remaining));
}

void
ScalarCore::tick(Cycle now)
{
    blocked_ = false;
    if (state_ == State::Done || stall_until_ > now)
        return;
    unsigned budget = cfg_.transmitWidth;
    while (budget > 0 && step(now, budget)) {
    }
    // Budget left over means step() refused to advance: the core is
    // gated on external progress, not merely out of transmit slots.
    blocked_ = budget > 0;
}

Cycle
ScalarCore::nextEventAt(Cycle now) const
{
    if (state_ == State::Done)
        return kCycleNever;
    if (stall_until_ > now)
        return stall_until_;
    if (state_ == State::AwaitVl || state_ == State::AwaitReconfig ||
        state_ == State::AwaitRelease) {
        // Resolution is a co-processor action; until it happens every
        // tick here is a pure status poll. The co-processor's probe
        // owns the wake (the outstanding MSR sits in its EM-SIMD
        // queue, or its drain progress gates it).
        return coproc_.vlRequestStatus(id_).resolved ? now + 1
                                                     : kCycleNever;
    }
    return blocked_ ? kCycleNever : now + 1;
}

template <class Self, class Ar>
void
ScalarCore::io(Self &s, Ar &ar)
{
    ar.section("core");
    ar.u8(s.state_, static_cast<unsigned>(State::Done) + 1,
          "corrupt checkpoint (bad scalar-core state)");
    ar.u64(s.loop_idx_);
    ar.u32(s.phase_id_base_);
    ar.u64(s.inst_idx_);
    ar.u64(s.elems_done_);
    ar.u64(s.iter_index_);
    ar.u32(s.current_vl_);
    ar.u32(s.active_elems_);
    ar.u64(s.await_since_);
    ar.u64(s.spin_since_);
    ar.u64(s.stall_until_);
    ar.u32(s.vl_before_request_);
    ar.b(s.blocked_);

    ar.len(s.phases_);
    for (auto &pt : s.phases_) {
        ar.str(pt.name);
        ar.u32(pt.phaseId);
        ar.u64(pt.start);
        ar.u64(pt.end);
        ar.b(pt.scalarVersion);
        ar.u32(pt.firstVl);
        ar.u32(pt.lastVl);
    }

    ar.u64(s.monitor_insts_);
    ar.u64(s.reconfig_wait_cycles_);
    ar.u64(s.reconfig_events_);
    ar.u64(s.reinit_insts_);
}

void ScalarCore::save(ckpt::Writer &w) const { io(*this, w); }
void ScalarCore::load(ckpt::Reader &r) { io(*this, r); }

void
ScalarCore::printState(std::ostream &os) const
{
    static const char *const names[] = {
        "Idle", "Prologue", "AwaitVl", "IterStart", "AwaitReconfig",
        "Reinit", "Body", "ScalarLoop", "Epilogue", "AwaitRelease",
        "Done",
    };
    os << "state " << names[static_cast<unsigned>(state_)] << '\n'
       << "loop_idx " << loop_idx_ << '\n'
       << "inst_idx " << inst_idx_ << '\n'
       << "elems_done " << elems_done_ << '\n'
       << "iter_index " << iter_index_ << '\n'
       << "current_vl " << current_vl_ << '\n'
       << "active_elems " << active_elems_ << '\n'
       << "blocked " << (blocked_ ? 1 : 0) << '\n'
       << "spin_since " << spin_since_ << '\n'
       << "stall_until " << stall_until_ << '\n'
       << "phases_recorded " << phases_.size() << '\n'
       << "monitor_insts " << monitor_insts_ << '\n'
       << "reconfig_wait_cycles " << reconfig_wait_cycles_ << '\n'
       << "reconfig_events " << reconfig_events_ << '\n'
       << "reinit_insts " << reinit_insts_ << '\n';
}

} // namespace occamy
