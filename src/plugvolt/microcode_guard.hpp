// PlugVolt — microcode-sequencer deployment (Sec. 5.1).
//
// Models the vendor-level variant: the maximal safe state is burned into
// microcode ROM, and the sequencer intercepts every `wrmsr` to 0x150.  A
// write that would push the system past the maximal safe boundary is
// silently ignored — the write-ignore behaviour Intel already applies to
// several MSRs.  Because the unsafe state is never *entered*, turnaround
// time is zero.
#pragma once

#include <cstdint>

#include "sim/machine.hpp"

namespace pv::plugvolt {

/// Installable microcode patch guarding MSR 0x150.
class MicrocodeGuard {
public:
    /// `maximal_safe` comes from LimitTable::maximal_safe().
    MicrocodeGuard(sim::Machine& machine, Millivolts maximal_safe);
    ~MicrocodeGuard();

    MicrocodeGuard(const MicrocodeGuard&) = delete;
    MicrocodeGuard& operator=(const MicrocodeGuard&) = delete;

    /// Load the microcode patch (idempotent).
    void install();
    /// Revert to the unpatched sequencer (idempotent).
    void uninstall();

    [[nodiscard]] bool installed() const { return token_.has_value(); }
    [[nodiscard]] Millivolts maximal_safe() const { return maximal_safe_; }

    /// Writes the sequencer has silently dropped.
    [[nodiscard]] std::uint64_t ignored_writes() const { return ignored_; }

private:
    sim::Machine& machine_;
    Millivolts maximal_safe_;
    std::optional<std::size_t> token_;
    std::uint64_t ignored_ = 0;
};

}  // namespace pv::plugvolt
