/**
 * @file
 * Scalar CPU core model (Section 4.1).
 *
 * The core executes a compiled Program in program order, transmitting
 * retired SVE and EM-SIMD instructions to the co-processor (up to
 * transmitWidth per cycle, stalling on pool back-pressure). It
 * implements the software side of the Fig. 9 protocol: the prologue's
 * default-VL set loop, the per-iteration partition monitor with its
 * speculative <decision> read, the <VL>-write retry spin, re-init after
 * a successful switch, and the epilogue's lane release. Loop-control
 * scalar instructions are folded into the 8-issue scalar pipeline and
 * charged zero co-processor cycles.
 */

#ifndef OCCAMY_CORE_SCALAR_CORE_HH
#define OCCAMY_CORE_SCALAR_CORE_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "coproc/coproc.hh"
#include "isa/inst.hh"
#include "obs/sink.hh"

namespace occamy
{

/** Execution record of one phase, for per-phase statistics. */
struct PhaseTrace
{
    std::string name;
    unsigned phaseId = 0;
    Cycle start = 0;
    Cycle end = 0;
    bool scalarVersion = false;      ///< Ran the multi-version fallback.
    unsigned firstVl = 0;            ///< BUs at phase entry.
    unsigned lastVl = 0;             ///< BUs at phase exit.
};

/** A scalar core driving the shared co-processor. */
class ScalarCore
{
  public:
    ScalarCore(CoreId id, const MachineConfig &cfg, CoProcessor &coproc);

    /** Install the compiled workload (arrays must carry base addrs). */
    void setProgram(const Program *prog);

    /** Emit up to transmitWidth instructions this cycle. */
    void tick(Cycle now);

    /**
     * Quiescence probe for the fast-forward engine: earliest future
     * cycle (> @p now) this core's tick can do anything. A finished
     * core never acts again (kCycleNever); a scalar-fallback stall
     * resumes exactly at its deadline; an Await state with the <VL>
     * request still unresolved, or a core blocked on co-processor
     * back-pressure, is woken by co-processor progress — the
     * co-processor's own probe carries those candidates, so this one
     * reports kCycleNever. Anything else acts next cycle.
     */
    Cycle nextEventAt(Cycle now) const;

    /** All instructions emitted (workload retired from the core). */
    bool doneEmitting() const { return state_ == State::Done; }

    /** @return per-phase execution records. */
    const std::vector<PhaseTrace> &phases() const { return phases_; }

    CoreId id() const { return id_; }
    unsigned currentVl() const { return current_vl_; }

    // --- Livelock-watchdog interface (sim/system.cc). ---

    /** True while a <VL> write is outstanding (any Await state). */
    bool awaitingVl() const
    {
        return state_ == State::AwaitVl || state_ == State::AwaitReconfig ||
               state_ == State::AwaitRelease;
    }

    /** Cycle the current <VL>-request episode began. Unlike the
     *  per-retry accounting timestamp, this is NOT reset when a
     *  rejected request is re-written (the Fig. 9 retry spin), so the
     *  watchdog sees the episode's total age. */
    Cycle spinSince() const { return spin_since_; }

    /**
     * Watchdog escalation: abandon the outstanding <VL> request and run
     * the rest of the phase through the multi-version scalar fallback
     * (§6), charging the scalar cost model for the remaining elements.
     * The core proceeds to its epilogue once the fallback stall expires.
     */
    void watchdogEscalate(Cycle now);

    /** Attach/detach the trace sink (null = tracing off). */
    void setEventSink(obs::EventSink *sink) { sink_ = sink; }

    // --- Overhead accounting (Fig. 15). ---

    /** Partition-monitor instructions emitted (MRS <decision>). */
    std::uint64_t monitorInsts() const { return monitor_insts_; }

    /** Cycles spent waiting on <VL> writes: drain + retry spins. */
    Cycle reconfigWaitCycles() const { return reconfig_wait_cycles_; }

    /** Successful vector-length switches observed by this core. */
    std::uint64_t reconfigEvents() const { return reconfig_events_; }

    /** Re-init instructions emitted after VL switches. */
    std::uint64_t reinitInsts() const { return reinit_insts_; }

    /**
     * Checkpoint restore only: install the program pointer *without*
     * setProgram's fresh-start resets (phase-id rebasing, state/index
     * clears) — load() overwrites every one of those fields with the
     * checkpointed values right after.
     */
    void restoreProgram(const Program *prog) { prog_ = prog; }

    /** Checkpoint hooks: the full software-protocol state machine. */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

    /** One-line-per-fact state dump for live inspection. */
    void printState(std::ostream &os) const;

  private:
    template <class Self, class Ar> static void io(Self &s, Ar &ar);

    enum class State
    {
        Idle,            ///< Between loops; advance to the next phase.
        Prologue,        ///< Emitting prologue instructions.
        AwaitVl,         ///< <VL> write outstanding (prologue).
        IterStart,       ///< Begin an iteration: run the monitor.
        AwaitReconfig,   ///< <VL> write outstanding (lazy reconfig).
        Reinit,          ///< Emitting post-switch re-init code.
        Body,            ///< Emitting the vector body.
        ScalarLoop,      ///< Multi-version scalar fallback.
        Epilogue,        ///< Emitting epilogue instructions.
        AwaitRelease,    ///< <VL>,0 outstanding (epilogue).
        Done,
    };

    /** Advance the state machine; @return false when blocked. */
    bool step(Cycle now, unsigned &budget);

    /** Emit one static instruction; @return false on back-pressure. */
    bool emit(const Inst &si, Cycle now, unsigned &budget);

    /** Build the dynamic instance of @p si for the current iteration. */
    DynInst makeDyn(const Inst &si, Cycle now) const;

    const VectorLoop &curLoop() const { return prog_->loops[loop_idx_]; }

    void enterLoop(Cycle now);
    void finishLoop(Cycle now);

    CoreId id_;
    const MachineConfig &cfg_;
    CoProcessor &coproc_;
    const Program *prog_ = nullptr;

    State state_ = State::Done;
    std::size_t loop_idx_ = 0;
    unsigned phase_id_base_ = 0;   ///< Unique phase ids across programs.
    std::size_t inst_idx_ = 0;       ///< Within the current section.
    std::uint64_t elems_done_ = 0;
    std::uint64_t iter_index_ = 0;   ///< For accumulator rotation.
    unsigned current_vl_ = 0;        ///< BUs, mirror of <VL>.
    unsigned active_elems_ = 0;      ///< Elements live this iteration.
    Cycle await_since_ = 0;
    Cycle spin_since_ = 0;           ///< Episode start (see spinSince()).
    Cycle stall_until_ = 0;          ///< Scalar-fallback cost model.
    unsigned vl_before_request_ = 0;
    /** Last tick ended with transmit budget left: the core is waiting
     *  on something external (back-pressure, <VL> resolution), not on
     *  its own next cycle. Input to nextEventAt(). */
    bool blocked_ = false;

    std::vector<PhaseTrace> phases_;

    std::uint64_t monitor_insts_ = 0;
    Cycle reconfig_wait_cycles_ = 0;
    std::uint64_t reconfig_events_ = 0;
    std::uint64_t reinit_insts_ = 0;

    obs::EventSink *sink_ = nullptr;    ///< Borrowed, may be null.

    /** Record a VL-reconfiguration protocol step, if traced. */
    void recordVl(Cycle now, obs::EventKind kind, std::uint64_t a,
                  std::uint64_t b) const;
};

} // namespace occamy

#endif // OCCAMY_CORE_SCALAR_CORE_HH
