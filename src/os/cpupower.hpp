// PlugVolt — the `cpupower` utility facade.
//
// The paper's Algorithm 2 sets test frequencies with the cpupower Linux
// utility; this facade reproduces its observable behaviour: `cpupower
// frequency-set -f X` pins every CPU to X.  Like the scaling driver it
// writes IA32_PERF_CTL with the frequency's ratio.  Note what it
// deliberately does NOT expose — operating voltage.  Voltage moves only
// through the OCM (MSR 0x150), which is the causal independence the
// paper's root-cause analysis hinges on.
#pragma once

#include "sim/machine.hpp"
#include "util/units.hpp"

namespace pv::os {

/// Minimal model of `cpupower frequency-set`.
class Cpupower {
public:
    explicit Cpupower(sim::Machine& machine) : machine_(machine) {}

    /// `cpupower frequency-set -f <f>`: every CPU.
    void frequency_set(Megahertz f);

    /// `cpupower -c <cpu> frequency-set -f <f>`.  `f` is clamped to the
    /// profile's [freq_min, freq_max]; throws ConfigError for a cpu out
    /// of range or a non-finite `f`, before any MSR write.
    void frequency_set(unsigned cpu, Megahertz f);

private:
    sim::Machine& machine_;
};

}  // namespace pv::os
