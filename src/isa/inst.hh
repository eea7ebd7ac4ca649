/**
 * @file
 * Static instructions and compiled-program containers.
 *
 * The Occamy compiler (src/compiler) lowers kernel-IR loops into
 * VectorLoop objects: straight-line SVE bodies plus the EM-SIMD
 * prologue / partition-monitor / reconfiguration / epilogue sections of
 * Fig. 9. The scalar-core model (src/core) walks this structure to
 * produce the dynamic instruction stream fed to the co-processor.
 */

#ifndef OCCAMY_ISA_INST_HH
#define OCCAMY_ISA_INST_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/opcode.hh"

namespace occamy
{

/** Which memory-hierarchy level bounds a phase's streaming bandwidth. */
enum class MemLevel : std::uint8_t
{
    VecCache,
    L2,
    Dram,
};

/**
 * Operational intensity of one phase as the compiler writes it to <OI>
 * (a pair of values, Section 6.3): the issue-side intensity uses total
 * bytes over all memory instructions, the memory-side intensity uses the
 * per-iteration footprint with data reuse considered (Eq. 5).
 */
struct PhaseOI
{
    double issue = 0.0;     ///< comp / sum of access bytes.
    double mem = 0.0;       ///< comp / footprint bytes.
    MemLevel level = MemLevel::Dram;   ///< Bandwidth ceiling that applies.

    bool active() const { return mem > 0.0; }
};

/** Checkpoint field list of a PhaseOI, for the resource table, the
 *  scheduler's view and in-flight instructions (ckpt/ckpt.hh). */
template <class Oi, class Ar>
void
ioPhaseOI(Oi &oi, Ar &ar)
{
    ar.f64(oi.issue);
    ar.f64(oi.mem);
    ar.u8(oi.level, static_cast<unsigned>(MemLevel::Dram) + 1,
          "corrupt checkpoint (bad memory level)");
}

/** A static (compile-time) instruction. */
struct Inst
{
    Opcode op = Opcode::SNop;

    /** Destination architectural register (z-reg for SVE, x-reg ids for
     *  MRS destinations; unused otherwise). */
    std::int16_t dst = -1;

    /** Source architectural registers (up to 3, e.g. fmla acc,a,b). */
    std::array<std::int16_t, 3> src{-1, -1, -1};
    std::uint8_t nsrc = 0;

    /** For VLoad/VStore: which program array is referenced. */
    std::int16_t arrayId = -1;

    /** For VLoad/VStore: element offset relative to the induction
     *  variable (e.g. -1 for dz[k-1]); enables sliding-window reuse. */
    std::int32_t elemOffset = 0;

    /** For VLoad/VStore: element stride; >1 is a gather/scatter. */
    std::int32_t stride = 1;

    /** Element size in bytes for memory instructions. */
    std::uint8_t elemBytes = 4;

    /** For MsrVL: requested vector length in BUs (0 with
     *  !vlFromDecision releases all lanes at phase exit). */
    std::uint32_t imm = 0;

    /** MsrVL: take the target vector length from <decision> instead
     *  of `imm` (the lazy reconfiguration path of Fig. 9). */
    bool vlFromDecision = false;

    /** Reduction accumulator rotation: the scalar core renames this
     *  instruction's accumulator register per iteration so independent
     *  partial sums hide the FP latency (standard unroll-and-jam). */
    bool rotateAcc = false;

    /** For MsrOI: the operational-intensity pair written to <OI>. */
    PhaseOI oi;

    /** Render "fmla z2, z0, z1"-style text. */
    std::string toString() const;
};

/** An array referenced by a compiled program. */
struct ArrayInfo
{
    std::string name;
    std::uint64_t elems = 0;      ///< Total elements.
    std::uint8_t elemBytes = 4;
    /** Streams once (index = i) vs wraps modulo `elems` (cache-resident
     *  working set regardless of trip count). */
    bool streaming = true;
    /** Base byte address; assigned when the program is bound to a core. */
    Addr base = 0;
};

/**
 * Static metadata describing one phase (== one vectorized loop), the
 * granularity at which the LaneMgr repartitions.
 */
struct PhaseInfo
{
    std::string name;
    PhaseOI oi;

    /** Scalar trip count (elements to process). */
    std::uint64_t tripElems = 0;

    /** Compute / memory instruction counts per vectorized iteration. */
    unsigned computeInsts = 0;
    unsigned memInsts = 0;

    /** Per-iteration unique bytes (Eq. 5 footprint, with reuse). */
    double footprintBytes = 0.0;

    /** Widest element type in the loop (bytes); sets elements/BU. */
    unsigned elemBytes = 4;

    /** Sum of access bytes per iteration (Eq. 5 issue denominator). */
    double accessBytes = 0.0;

    /** True if the compiler classified the phase memory-intensive. */
    bool memoryIntensive = false;
};

/**
 * A compiled vectorized loop with the eager-lazy lane-partitioning code
 * of Fig. 9 attached.
 */
struct VectorLoop
{
    PhaseInfo phase;

    /** Eager partitioning: MSR <OI>, then the default-VL set loop. */
    std::vector<Inst> prologue;

    /** Lazy partitioning: MRS <decision> + compare, run per iteration. */
    std::vector<Inst> monitor;

    /** Vector-length reconfiguration: MSR <VL> retry loop. */
    std::vector<Inst> reconfig;

    /** Re-initialization after a successful VL switch: loop-invariant
     *  re-broadcasts and reduction fix-up (Section 6.4). */
    std::vector<Inst> reinit;

    /** The vectorized loop body (one strip-mined iteration). */
    std::vector<Inst> body;

    /** Multi-version scalar fallback for small trip counts. */
    std::vector<Inst> scalarBody;

    /** Eager partitioning: MSR <OI>,0 and MSR <VL>,0 (release lanes). */
    std::vector<Inst> epilogue;

    /** Compiler-selected default vector length, in BUs. */
    unsigned defaultVl = 1;

    /** The partition monitor runs every this-many iterations. */
    unsigned monitorPeriod = 1;

    /** Elements processed per ExeBU per iteration (128 bits divided by
     *  the loop's widest element type: 8 for f16, 4 for f32, 2 for
     *  f64). */
    unsigned elemsPerBu = 4;

    /** Below this trip count the scalar version is chosen at run time. */
    std::uint64_t scalarThreshold = 128;

    /** True if the loop carries a reduction across iterations. */
    bool hasReduction = false;
};

/** A compiled workload: its arrays plus an ordered list of phases. */
struct Program
{
    std::string name;
    std::vector<ArrayInfo> arrays;
    std::vector<VectorLoop> loops;

    /** Pretty-print the whole program (assembly-like listing). */
    std::string disassemble() const;
};

} // namespace occamy

#endif // OCCAMY_ISA_INST_HH
