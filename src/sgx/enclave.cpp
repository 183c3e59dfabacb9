#include "sgx/enclave.hpp"

#include <optional>

#include "sgx/runtime.hpp"

namespace pv::sgx {
namespace {

// The attached stepper as one entry sees it.
struct Stepping {
    bool aex = false;  // single-stepping: an AEX after every retired instruction
    std::optional<std::size_t> suppress_at;
};

// The architectural effect of program[i], retired with `faulted`, and the
// AEX after it; true when it ends the entry (a trap fires or the
// zero-step suppresses the rest).
inline bool retire(const Program& program, std::size_t i, bool faulted, const Stepping& stepping,
            EnclaveRunResult& result, sim::Machine& machine) {
    const VictimInstr& instr = program[i];
    if (instr.is_trap()) {
        // A faulted trap instance corrupts its own recomputation —
        // either way the comparison trips and the deflection fires.
        if (!faulted && !trap_fires(instr, result.regs)) return false;
        result.trap_detected = true;
        return true;
    }
    execute(instr, result.regs, faulted, &machine);
    if (!stepping.aex) return false;
    ++result.aex_count;  // adversary-induced asynchronous exit
    if (!stepping.suppress_at || i < *stepping.suppress_at) return false;
    result.suppressed = true;
    return true;
}

}  // namespace

Enclave::Enclave(SgxRuntime& runtime, std::string name, unsigned core)
    : runtime_(runtime), name_(std::move(name)), core_(core) {
    runtime_.enclave_created();
}

Enclave::~Enclave() { runtime_.enclave_destroyed(); }

EnclaveRunResult Enclave::run(const Program& program) {
    sim::Machine& machine = runtime_.machine();
    const Stepping stepping{
        .aex = stepper_ != nullptr && stepper_->capabilities().single_step,
        .suppress_at = stepper_ != nullptr ? stepper_->suppression_point() : std::nullopt};

    // The entry as it runs when no instruction faults: its outcome, and
    // the classes of the instructions it retires, up to a trap that fires,
    // the zero-step or the end of the program.
    EnclaveRunResult result;
    classes_.resize(program.size());
    std::size_t extent = 0;
    while (extent < program.size()) {
        classes_[extent] = program[extent].cls;
        if (retire(program, extent++, /*faulted=*/false, stepping, result, machine)) break;
    }

    runtime_.enter();
    const sim::OpRunResult run =
        machine.execute_ops(core_, std::span<const sim::InstrClass>(classes_).first(extent));
    if (run.faulted || (machine.crashed() && !program.empty())) {
        // Cut short by a fault or a crash: the instructions before it
        // retired as in the fault-free run.  From the faulted one on, one
        // instruction at a time, so each corruption draw and trap check
        // comes right after its instruction, as the machine draws them.
        result = EnclaveRunResult{};
        std::size_t i = 0;
        for (; i + 1 < run.ops_done; ++i)
            (void)retire(program, i, /*faulted=*/false, stepping, result, machine);
        bool faulted = run.faulted;
        while (!machine.crashed()) {
            if (retire(program, i, faulted, stepping, result, machine) || ++i == program.size())
                break;
            faulted = machine.execute_op(core_, program[i].cls);
        }
        result.machine_crashed = machine.crashed();
    }
    runtime_.leave();

    result.completed = !result.trap_detected && !result.suppressed && !result.machine_crashed;
    return result;
}

}  // namespace pv::sgx
