#include "defenses/minefield.hpp"

namespace pv::defense {

sgx::Program Minefield::instrument(const sgx::Program& program) {
    stats_ = MinefieldStats{};
    stats_.original_instructions = program.size();

    sgx::Program out;
    out.reserve(program.size() * 2);
    for (std::size_t i = 0; i < program.size(); ++i) {
        const auto& instr = program[i];
        out.push_back(instr);
        const std::optional<sgx::MulOperands> ops = instr.mul_ops();
        if (!ops) continue;
        if (ops->dst == ops->a || ops->dst == ops->b) continue;  // inputs clobbered
        // Idempotence: don't mine an already-mined multiply.
        if (i + 1 < program.size() && program[i + 1].is_trap()) continue;
        out.push_back(sgx::make_mul_trap(ops->dst, ops->a, ops->b));
        ++stats_.traps_inserted;
    }
    return out;
}

}  // namespace pv::defense
