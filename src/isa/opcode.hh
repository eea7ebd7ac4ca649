/**
 * @file
 * Instruction opcodes for the three instruction classes the paper's
 * Table 2 distinguishes: Scalar, SVE (compute and ld/st), and EM-SIMD
 * (reads/writes of the five dedicated registers of Table 1).
 */

#ifndef OCCAMY_ISA_OPCODE_HH
#define OCCAMY_ISA_OPCODE_HH

#include <cstdint>

namespace occamy
{

/** Opcodes understood by the scalar cores and the co-processor. */
enum class Opcode : std::uint8_t
{
    // Scalar instructions (executed by the scalar cores).
    SNop,
    SAlu,           ///< Generic scalar integer ALU op (addressing, cmp).
    SBranch,        ///< Conditional branch.
    SLoad,          ///< Scalar load.
    SStore,         ///< Scalar store.

    // SVE compute instructions (variable-length vector arithmetic).
    VFAdd,
    VFSub,
    VFMul,
    VFDiv,
    VFMla,          ///< Fused multiply-add.
    VFNeg,
    VFSqrt,
    VFAbs,
    VFMax,
    VFMin,
    VCmp,           ///< Vector compare producing a predicate.
    VSel,           ///< Predicated select.
    VDup,           ///< Broadcast a scalar into all lanes (loop invariant).
    VRedAdd,        ///< Horizontal add-reduction into a scalar.
    VWhilelt,       ///< Build the loop-tail predicate (whilelt).

    // SVE memory instructions.
    VLoad,          ///< Contiguous vector load (128 * vl bits).
    VStore,         ///< Contiguous vector store.

    // EM-SIMD instructions (Table 1 dedicated registers via MRS/MSR).
    MsrOI,          ///< Write a phase's operational intensity into <OI>.
    MsrVL,          ///< Request the vector length <VL> := imm/reg.
    MrsVL,          ///< Read the configured vector length.
    MrsStatus,      ///< Read the success flag of the last <VL> write.
    MrsDecision,    ///< Read the suggested vector length <decision>.
    MrsAL,          ///< Read the number of free SIMD lanes <AL>.
};

/** Number of opcodes (for range checks on decoded values). */
inline constexpr unsigned kNumOpcodes =
    static_cast<unsigned>(Opcode::MrsAL) + 1;

/** @return true for SVE arithmetic (the "SIMD compute" class). */
constexpr bool
isVCompute(Opcode op)
{
    switch (op) {
      case Opcode::VFAdd:
      case Opcode::VFSub:
      case Opcode::VFMul:
      case Opcode::VFDiv:
      case Opcode::VFMla:
      case Opcode::VFNeg:
      case Opcode::VFSqrt:
      case Opcode::VFAbs:
      case Opcode::VFMax:
      case Opcode::VFMin:
      case Opcode::VCmp:
      case Opcode::VSel:
      case Opcode::VDup:
      case Opcode::VRedAdd:
      case Opcode::VWhilelt:
        return true;
      default:
        return false;
    }
}

/** @return true for SVE memory instructions. */
constexpr bool
isVMem(Opcode op)
{
    return op == Opcode::VLoad || op == Opcode::VStore;
}

/** @return true for any SVE instruction (compute or ld/st). */
constexpr bool
isSve(Opcode op)
{
    return isVCompute(op) || isVMem(op);
}

/** @return true for EM-SIMD ISA-extension instructions. */
constexpr bool
isEmSimd(Opcode op)
{
    switch (op) {
      case Opcode::MsrOI:
      case Opcode::MsrVL:
      case Opcode::MrsVL:
      case Opcode::MrsStatus:
      case Opcode::MrsDecision:
      case Opcode::MrsAL:
        return true;
      default:
        return false;
    }
}

/** @return true for scalar-core instructions. */
constexpr bool
isScalar(Opcode op)
{
    return !isSve(op) && !isEmSimd(op);
}

/** @return execution latency class of an SVE compute op, in cycles. */
constexpr unsigned
computeLatency(Opcode op, unsigned fp_latency)
{
    switch (op) {
      case Opcode::VFDiv:
        return fp_latency * 4;          // Unpipelined-ish long op.
      case Opcode::VFSqrt:
        return fp_latency * 4;
      case Opcode::VRedAdd:
        return fp_latency + 2;          // Cross-lane tree.
      case Opcode::VDup:
      case Opcode::VWhilelt:
      case Opcode::VSel:
      case Opcode::VCmp:
      case Opcode::VFNeg:
      case Opcode::VFAbs:
        return 1;
      default:
        return fp_latency;
    }
}

/** Short mnemonic, for disassembly and traces. */
const char *opcodeName(Opcode op);

} // namespace occamy

#endif // OCCAMY_ISA_OPCODE_HH
