#include "sgx/program.hpp"

#include "util/error.hpp"

namespace pv::sgx {
namespace {

void check_reg(unsigned r) {
    if (r >= 16) throw ConfigError("register index out of range");
}

VictimInstr make_reg_op(VictimOp op, sim::InstrClass cls, std::string mnemonic,
                        unsigned dst, unsigned a, unsigned b) {
    check_reg(dst);
    check_reg(a);
    check_reg(b);
    VictimInstr i;
    i.op = op;
    i.cls = cls;
    i.mnemonic = std::move(mnemonic);
    i.dst = dst;
    i.a = a;
    i.b = b;
    return i;
}

std::string three_reg(const char* name, unsigned dst, unsigned a, unsigned b) {
    return std::string(name) + " r" + std::to_string(dst) + ", r" + std::to_string(a) +
           ", r" + std::to_string(b);
}

}  // namespace

VictimInstr make_imul(unsigned dst, unsigned a, unsigned b) {
    return make_reg_op(VictimOp::Imul, sim::InstrClass::Imul, three_reg("imul", dst, a, b),
                       dst, a, b);
}

VictimInstr make_add(unsigned dst, unsigned a, unsigned b) {
    return make_reg_op(VictimOp::Add, sim::InstrClass::Alu, three_reg("add", dst, a, b), dst,
                       a, b);
}

VictimInstr make_load_imm(unsigned dst, std::uint64_t imm) {
    check_reg(dst);
    VictimInstr i;
    i.op = VictimOp::LoadImm;
    i.cls = sim::InstrClass::Load;
    i.mnemonic = "mov r" + std::to_string(dst) + ", imm";
    i.dst = dst;
    i.imm = imm;
    return i;
}

VictimInstr make_xor(unsigned dst, unsigned a, unsigned b) {
    return make_reg_op(VictimOp::Xor, sim::InstrClass::Alu, three_reg("xor", dst, a, b), dst,
                       a, b);
}

VictimInstr make_mul_trap(unsigned dst, unsigned a, unsigned b) {
    // The check re-multiplies: same timing path as the multiply it guards.
    return make_reg_op(VictimOp::MulTrap, sim::InstrClass::Imul,
                       "trap.mulchk r" + std::to_string(dst), dst, a, b);
}

Program make_mul_chain(std::uint64_t seed_a, std::uint64_t seed_b, std::size_t n) {
    Program p;
    p.reserve(n + 2);
    p.push_back(make_load_imm(0, seed_a));
    p.push_back(make_load_imm(1, seed_b));
    for (std::size_t i = 0; i < n; ++i) {
        p.push_back(make_imul(2, 0, 1));
        p.push_back(make_xor(0, 2, 1));
    }
    return p;
}

std::array<std::uint64_t, 16> reference_run(const Program& program,
                                            std::array<std::uint64_t, 16> regs) {
    return reference_run_prefix(program, program.size(), regs);
}

std::array<std::uint64_t, 16> reference_run_prefix(const Program& program, std::size_t count,
                                                   std::array<std::uint64_t, 16> regs) {
    if (count > program.size()) throw ConfigError("reference prefix longer than program");
    for (std::size_t i = 0; i < count; ++i) execute(program[i], regs, /*faulted=*/false, nullptr);
    return regs;
}

std::size_t last_mul_index(const Program& program) {
    for (std::size_t i = program.size(); i > 0; --i) {
        if (program[i - 1].op == VictimOp::Imul) return i - 1;
    }
    throw ConfigError("program contains no multiply");
}

}  // namespace pv::sgx
