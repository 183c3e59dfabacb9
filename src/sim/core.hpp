// PlugVolt — per-core state.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace pv::sim {

/// Idle/non-idle state of a core (paper Sec. 1: C-states vs P-states).
enum class PowerState {
    Active,  ///< executing (a P-state)
    Idle,    ///< clock/power-gated (a C-state)
};

/// Concrete idle levels (a representative subset of the ACPI ladder).
enum class CState {
    C0,  ///< executing
    C1,  ///< clock-gated halt: fast exit, still leaking
    C6,  ///< power-gated: slow exit, core leakage off, rail unconstrained
};

/// One physical core: its current P-state frequency, idleness, retired
/// work counters and the time stolen from it by kernel threads.
class Core {
public:
    explicit Core(unsigned id, Megahertz freq) : id_(id), freq_(freq) {}

    [[nodiscard]] unsigned id() const { return id_; }
    [[nodiscard]] Megahertz frequency() const { return freq_; }
    void set_frequency(Megahertz f) { freq_ = f; }

    [[nodiscard]] PowerState power_state() const {
        return cstate_ == CState::C0 ? PowerState::Active : PowerState::Idle;
    }
    void set_power_state(PowerState s) {
        cstate_ = s == PowerState::Active ? CState::C0 : CState::C1;
    }

    [[nodiscard]] CState cstate() const { return cstate_; }
    void set_cstate(CState s) { cstate_ = s; }

    /// Instructions retired by workload execution on this core.
    [[nodiscard]] std::uint64_t instructions_retired() const { return instructions_; }
    void retire(std::uint64_t n) { instructions_ += n; }

    /// Time consumed by kernel threads that has not yet been charged to
    /// a workload window on this core.
    [[nodiscard]] Picoseconds pending_steal() const { return pending_steal_; }
    void add_steal(Picoseconds t) { pending_steal_ += t; total_steal_ += t; }
    /// Drain up to `budget` of pending steal; returns the amount drained.
    Picoseconds drain_steal(Picoseconds budget) {
        const Picoseconds drained = pending_steal_ < budget ? pending_steal_ : budget;
        pending_steal_ -= drained;
        return drained;
    }

    /// Cumulative stolen time since construction/reset.
    [[nodiscard]] Picoseconds total_steal() const { return total_steal_; }

    /// Restore boot state, keeping the identity.
    void reset(Megahertz boot_freq);

private:
    unsigned id_;
    Megahertz freq_;
    CState cstate_ = CState::C0;
    std::uint64_t instructions_ = 0;
    Picoseconds pending_steal_{};
    Picoseconds total_steal_{};
};

}  // namespace pv::sim
