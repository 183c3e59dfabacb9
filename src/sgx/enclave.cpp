#include "sgx/enclave.hpp"

#include <optional>

#include "sgx/runtime.hpp"

namespace pv::sgx {
namespace {

// The architectural effect of program[i], retired with `faulted`, and the
// AEX after it; true when it ends the entry (a trap fires or the
// zero-step suppresses the rest).
inline bool retire(const Program& program, std::size_t i, bool faulted,
                   const Enclave::Stepping& stepping,
                   EnclaveRunResult& result, sim::Machine* machine) {
    const VictimInstr& instr = program[i];
    if (instr.is_trap()) {
        // A faulted trap instance corrupts its own recomputation —
        // either way the comparison trips and the deflection fires.
        if (!faulted && !trap_fires(instr, result.regs)) return false;
        result.trap_detected = true;
        return true;
    }
    execute(instr, result.regs, faulted, machine);
    if (!stepping.aex) return false;
    ++result.aex_count;  // adversary-induced asynchronous exit
    if (!stepping.suppress_at || i < *stepping.suppress_at) return false;
    result.suppressed = true;
    return true;
}

}  // namespace

Enclave::Enclave(SgxRuntime& runtime, std::string name, unsigned core, Program program)
    : runtime_(runtime), name_(std::move(name)), core_(core), program_(std::move(program)) {
    classes_.reserve(program_.size());
    for (const VictimInstr& instr : program_) classes_.push_back(instr.cls);
    runtime_.enclave_created();
}

Enclave::~Enclave() { runtime_.enclave_destroyed(); }

const Enclave::EntryPlan& Enclave::plan_for(const Stepping& stepping) {
    for (const EntryPlan& plan : plans_)
        if (plan.stepping == stepping) return plan;
    // The fault-free walk reads nothing but the program and the stepping
    // plan, so its outcome holds for every entry under that plan.
    EntryPlan& plan =
        plans_.emplace_back(EntryPlan{.stepping = stepping, .extent = 0, .clean = {}});
    while (plan.extent < program_.size()) {
        if (retire(program_, plan.extent++, /*faulted=*/false, stepping, plan.clean, nullptr))
            break;
    }
    return plan;
}

EnclaveRunResult Enclave::run() {
    sim::Machine& machine = runtime_.machine();
    const Stepping stepping{
        .aex = stepper_ != nullptr && stepper_->capabilities().single_step,
        .suppress_at = stepper_ != nullptr ? stepper_->suppression_point() : std::nullopt};
    const EntryPlan& plan = plan_for(stepping);

    EnclaveRunResult result = plan.clean;
    runtime_.enter();
    const sim::OpRunResult run =
        machine.execute_ops(core_, std::span<const sim::InstrClass>(classes_).first(plan.extent));
    if (run.faulted || (machine.crashed() && !program_.empty())) {
        // Cut short by a fault or a crash: the instructions before it
        // retired as in the fault-free run.  From the faulted one on, one
        // instruction at a time, so each corruption draw and trap check
        // comes right after its instruction, as the machine draws them.
        result = EnclaveRunResult{};
        std::size_t i = 0;
        for (; i + 1 < run.ops_done; ++i)
            (void)retire(program_, i, /*faulted=*/false, stepping, result, &machine);
        bool faulted = run.faulted;
        while (!machine.crashed()) {
            if (retire(program_, i, faulted, stepping, result, &machine) ||
                ++i == program_.size())
                break;
            faulted = machine.execute_op(core_, program_[i].cls);
        }
        result.machine_crashed = machine.crashed();
    }
    runtime_.leave();

    result.completed = !result.trap_detected && !result.suppressed && !result.machine_crashed;
    return result;
}

}  // namespace pv::sgx
