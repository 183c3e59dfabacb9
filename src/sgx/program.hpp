// PlugVolt — victim programs.
//
// Attacks fault *computations*, and defenses instrument them — Minefield
// rewrites the instruction stream, enclaves single-step it.  A Program is
// a small straight-line instruction list over a 16-register file; each
// instruction is an opcode with register operands, and whether a dynamic
// instance faults comes from the machine's fault model.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/instr.hpp"
#include "sim/machine.hpp"

namespace pv::sgx {

/// Register operands of a multiply, exposed so instrumentation passes
/// (Minefield) can synthesize consistency checks.
struct MulOperands {
    unsigned dst = 0, a = 0, b = 0;
};

/// What a victim instruction computes.
enum class VictimOp {
    LoadImm,  ///< rDst = imm
    Add,      ///< rDst = rA + rB
    Xor,      ///< rDst = rA ^ rB
    Imul,     ///< rDst = rA * rB (wrapping 64-bit)
    MulTrap,  ///< Minefield trap: fires if rA * rB != rDst
};

/// One victim instruction: a timing class (for the fault physics) plus
/// an opcode and its operands (for the architectural semantics).
struct VictimInstr {
    VictimOp op = VictimOp::LoadImm;
    sim::InstrClass cls = sim::InstrClass::Alu;
    std::string mnemonic;
    unsigned dst = 0, a = 0, b = 0;
    std::uint64_t imm = 0;

    /// True for defense-inserted checks (Minefield traps).
    [[nodiscard]] bool is_trap() const { return op == VictimOp::MulTrap; }

    /// The operands of a (non-trap) multiply, so compiler passes can
    /// instrument it; empty for every other instruction.
    [[nodiscard]] std::optional<MulOperands> mul_ops() const {
        if (op != VictimOp::Imul) return std::nullopt;
        return MulOperands{dst, a, b};
    }
};

using Program = std::vector<VictimInstr>;

/// rX = rA * rB (wrapping 64-bit); faults corrupt the product the way an
/// undervolted multiplier does.
[[nodiscard]] VictimInstr make_imul(unsigned dst, unsigned a, unsigned b);

/// rX = rA + rB; on the (much shorter) ALU path.
[[nodiscard]] VictimInstr make_add(unsigned dst, unsigned a, unsigned b);

/// rX = imm.
[[nodiscard]] VictimInstr make_load_imm(unsigned dst, std::uint64_t imm);

/// rX = rA ^ rB.
[[nodiscard]] VictimInstr make_xor(unsigned dst, unsigned a, unsigned b);

/// A Minefield-style trap: recompute rA * rB and trap if it differs from
/// rDst (i.e. the preceding multiply was faulted).
[[nodiscard]] VictimInstr make_mul_trap(unsigned dst, unsigned a, unsigned b);

/// A chain of `n` dependent multiplies r2 = r0 * r1; r0 = r2 ^ r1; ...
/// — the classic Plundervolt victim loop, unrolled.
[[nodiscard]] Program make_mul_chain(std::uint64_t seed_a, std::uint64_t seed_b, std::size_t n);

/// Reference (fault-free) final register file of a program, computed
/// without touching the machine.  Used to decide whether an output was
/// corrupted.
[[nodiscard]] std::array<std::uint64_t, 16> reference_run(const Program& program,
                                                          std::array<std::uint64_t, 16> regs = {});

/// Reference register file after executing only program[0..count).
[[nodiscard]] std::array<std::uint64_t, 16> reference_run_prefix(
    const Program& program, std::size_t count, std::array<std::uint64_t, 16> regs = {});

/// Architectural effect of `instr` on `regs` (none for a trap).  A
/// faulted Add/Xor/Imul draws its corrupted result from `machine`; pass
/// null for fault-free reference evaluation.
inline void execute(const VictimInstr& instr, std::array<std::uint64_t, 16>& regs,
                    bool faulted, sim::Machine* machine) {
    std::uint64_t v = 0;
    switch (instr.op) {
        case VictimOp::LoadImm:
            regs[instr.dst] = instr.imm;
            return;
        case VictimOp::Add: v = regs[instr.a] + regs[instr.b]; break;
        case VictimOp::Xor: v = regs[instr.a] ^ regs[instr.b]; break;
        case VictimOp::Imul: v = regs[instr.a] * regs[instr.b]; break;
        case VictimOp::MulTrap: return;
    }
    if (faulted && machine != nullptr) v = machine->corrupt_value(v);
    regs[instr.dst] = v;
}

/// True when a Minefield trap's consistency check fails on `regs`.
[[nodiscard]] inline bool trap_fires(const VictimInstr& trap,
                                     const std::array<std::uint64_t, 16>& regs) {
    return regs[trap.a] * regs[trap.b] != regs[trap.dst];
}

/// Index of the last non-trap multiply in `program`; throws ConfigError
/// if there is none.  (What a stepping attacker targets.)
[[nodiscard]] std::size_t last_mul_index(const Program& program);

}  // namespace pv::sgx
