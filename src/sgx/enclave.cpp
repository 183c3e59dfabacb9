#include "sgx/enclave.hpp"

#include "sgx/runtime.hpp"

namespace pv::sgx {

Enclave::Enclave(SgxRuntime& runtime, std::string name, unsigned core)
    : runtime_(runtime), name_(std::move(name)), core_(core) {
    runtime_.enclave_created();
}

Enclave::~Enclave() { runtime_.enclave_destroyed(); }

EnclaveRunResult Enclave::run(const Program& program) {
    EnclaveRunResult result;
    sim::Machine& machine = runtime_.machine();

    runtime_.enter();
    for (std::size_t i = 0; i < program.size(); ++i) {
        const VictimInstr& instr = program[i];
        const bool faulted = machine.execute_op(core_, instr.cls);
        if (machine.crashed()) {
            result.machine_crashed = true;
            break;
        }
        if (instr.is_trap()) {
            // A faulted trap instance corrupts its own recomputation —
            // either way the comparison trips and the deflection fires.
            if (faulted || trap_fires(instr, result.regs)) {
                result.trap_detected = true;
                break;
            }
            continue;
        }
        execute(instr, result.regs, faulted, &machine);

        if (stepper_ != nullptr && stepper_->capabilities().single_step) {
            ++result.aex_count;  // adversary-induced asynchronous exit
            if (stepper_->step(i) == StepAction::SuppressProgress) {
                result.suppressed = true;
                break;
            }
        }
    }
    runtime_.leave();

    result.completed = !result.trap_detected && !result.suppressed && !result.machine_crashed;
    return result;
}

}  // namespace pv::sgx
