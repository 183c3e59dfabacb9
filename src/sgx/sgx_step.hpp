// PlugVolt — SGX-Step-style interrupt adversary.
//
// SGX-Step abuses the APIC timer to interrupt an enclave after every
// single instruction (AEX), giving the attacker a hook between any two
// victim instructions; zero-stepping additionally lets it replay/suppress
// forward progress — unbounded time between fault injection and whatever
// the enclave would do next.  The paper leans on exactly this capability
// to argue that trap-deflection defenses (Minefield) need third-party
// help, while the PlugVolt countermeasure does not care (Sec. 4.1).
#pragma once

#include <cstddef>
#include <optional>

namespace pv::sgx {

/// What the adversary can do to enclave execution.
struct StepperCapabilities {
    bool single_step = true;  ///< AEX after every instruction
    bool zero_step = false;   ///< suppress forward progress at will
};

/// The stepping adversary attached to an enclave.  Its zero-step plan is
/// declarative: the enclave knows before an entry starts where progress
/// stops, so it can hand the machine whole instruction runs.
class SgxStep {
public:
    explicit SgxStep(StepperCapabilities caps) : caps_(caps) {}

    /// Plan a zero-step: at the first AEX after an instruction with index
    /// `index` or later, the rest of the program never retires.
    void suppress_after(std::size_t index) { suppress_after_ = index; }

    [[nodiscard]] const StepperCapabilities& capabilities() const { return caps_; }

    /// The planned suppression index, when the stepper can carry it out:
    /// suppressing takes the AEXs of single-stepping and the zero-step
    /// capability both.
    [[nodiscard]] std::optional<std::size_t> suppression_point() const {
        if (!caps_.single_step || !caps_.zero_step) return std::nullopt;
        return suppress_after_;
    }

private:
    StepperCapabilities caps_;
    std::optional<std::size_t> suppress_after_;
};

}  // namespace pv::sgx
