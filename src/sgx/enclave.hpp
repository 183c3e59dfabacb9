// PlugVolt — enclave execution model.
//
// An Enclave runs a victim Program on a core.  Execution is faithful to
// the properties the paper's arguments rest on:
//  - each instruction's fault outcome comes from the machine's physics
//    (so undervolting the package faults enclave multiplies exactly like
//    non-enclave ones — SGX does not protect against DVFS faults);
//  - an attached SgxStep adversary takes an AEX after every retired
//    instruction, and with zero-stepping may suppress the rest of the
//    program (defeating in-enclave trap deflection);
//  - Minefield-style traps abort the run with `detected` when their
//    consistency check fails.
// The program is fixed when the enclave is loaded (as SGX fixes it at
// EINIT), and up to its first fault an entry is fully determined: the
// enclave derives that fault-free entry plan once per stepping plan it
// sees, and each entry hands the planned run of instructions to the
// machine in one call (Machine::execute_ops); from the first fault on it
// steps one instruction at a time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sgx/program.hpp"
#include "sgx/sgx_step.hpp"
#include "sim/machine.hpp"

namespace pv::sgx {

class SgxRuntime;

/// Outcome of one enclave entry.
struct EnclaveRunResult {
    bool completed = false;      ///< ran to the end of the program
    bool trap_detected = false;  ///< a defense trap fired (run aborted)
    bool suppressed = false;     ///< zero-stepping adversary froze progress
    bool machine_crashed = false;
    std::uint64_t aex_count = 0; ///< asynchronous exits (adversary interrupts)
    std::array<std::uint64_t, 16> regs{};  ///< architectural state at exit
};

/// A loaded enclave bound to a core, with the program it runs.
class Enclave {
public:
    Enclave(SgxRuntime& runtime, std::string name, unsigned core, Program program);
    ~Enclave();

    Enclave(const Enclave&) = delete;
    Enclave& operator=(const Enclave&) = delete;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] unsigned core() const { return core_; }

    /// Attach (or detach with nullptr) a stepping adversary.  Non-owning;
    /// the stepper must outlive the run.
    void attach_stepper(const SgxStep* stepper) { stepper_ = stepper; }

    /// EENTER: run the program to completion, trap, suppression or crash.
    EnclaveRunResult run();

    /// The attached stepper as one entry sees it.
    struct Stepping {
        bool aex = false;  ///< single-stepping: an AEX after every retired instruction
        std::optional<std::size_t> suppress_at;
        bool operator==(const Stepping&) const = default;
    };

private:
    /// An entry as it runs when no instruction faults: it retires the
    /// first `extent` instructions (up to a trap that fires, the
    /// zero-step or the end of the program) and ends as `clean`.
    struct EntryPlan {
        Stepping stepping;
        std::size_t extent = 0;
        EnclaveRunResult clean;
    };

    [[nodiscard]] const EntryPlan& plan_for(const Stepping& stepping);

    SgxRuntime& runtime_;
    std::string name_;
    unsigned core_;
    Program program_;
    std::vector<sim::InstrClass> classes_;  ///< program_'s op classes
    std::vector<EntryPlan> plans_;          ///< one per stepping plan seen
    const SgxStep* stepper_ = nullptr;
};

}  // namespace pv::sgx
