// PlugVolt — per-generation CPU profiles.
//
// The paper characterizes three Intel parts: i5-6500 (Sky Lake, ucode
// 0xf0), i5-8250U (Kaby Lake R, ucode 0xf4) and i7-10510U (Comet Lake,
// ucode 0xf4).  A profile bundles everything generation-specific: the
// frequency table, the fused VF curve, the timing-model constants the
// fault physics run on, and the latency prices for MSR access and the
// voltage regulator.
//
// Calibration note: the timing constants are chosen so that (a) nominal
// operation is safe with margin at every table frequency, and (b) the
// emergent fault-onset curve is monotone — deeper undervolt headroom at
// low frequency — matching the published undervolt-attack literature.
// Both properties are enforced by tests, not assumed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/power.hpp"
#include "sim/thermal.hpp"
#include "sim/vf_curve.hpp"
#include "util/units.hpp"

namespace pv::sim {

/// Constants of the alpha-power-law timing model (see TimingModel).
struct TimingParams {
    Millivolts threshold_voltage;   ///< effective transistor threshold
    double alpha;                   ///< velocity-saturation exponent
    double path_constant_ps;        ///< critical-path delay scale factor
    double setup_time_ps;           ///< T_setup of the capturing flop
    double clock_uncertainty_ps;    ///< T_eps — worst-case skew/jitter mean
    double sigma_fraction;          ///< cycle-to-cycle delay noise, fraction of path delay
    double crash_path_factor;       ///< control-path length whose violation crashes the machine
};

/// Cycle prices for MSR access paths and kernel-thread machinery.
struct AccessCosts {
    std::uint64_t rdmsr_cycles;         ///< local rdmsr
    std::uint64_t wrmsr_cycles;         ///< local wrmsr
    std::uint64_t ioctl_overhead_cycles;///< user->kernel transition of /dev/cpu/N/msr
    std::uint64_t ipi_cycles;           ///< cross-core smp_call for a remote MSR
    std::uint64_t kthread_wake_cycles;  ///< periodic kthread wakeup + context switch
};

/// Voltage-regulator behaviour for OCM writes.
struct RegulatorParams {
    Picoseconds write_latency;   ///< delay before the ramp starts
    double slew_mv_per_us;       ///< ramp rate toward the target offset
};

/// Everything generation-specific the simulator needs.
struct CpuProfile {
    std::string name;            ///< marketing name, e.g. "Intel Core i5-6500"
    std::string codename;        ///< e.g. "Sky Lake"
    std::string microcode;       ///< e.g. "0xf0"
    unsigned core_count;
    Megahertz freq_min;
    Megahertz freq_max;
    Megahertz freq_base;
    Megahertz freq_step;         ///< frequency table resolution (100 MHz)
    std::vector<VfCurve::Point> vf_points;
    TimingParams timing;
    AccessCosts costs;
    RegulatorParams regulator;
    PowerParams power;
    ThermalParams thermal;

    /// The discrete frequency table (min..max at `freq_step` resolution),
    /// i.e. the set the paper's Algorithm 2 sweeps with 0.1 GHz steps.
    [[nodiscard]] std::vector<Megahertz> frequency_table() const;

    /// VF curve built from `vf_points`.
    [[nodiscard]] VfCurve vf_curve() const { return VfCurve{vf_points}; }
};

/// Intel Core i5-6500 (Sky Lake, microcode 0xf0): 4C/4T, 0.8–3.6 GHz.
[[nodiscard]] CpuProfile skylake_i5_6500();

/// Intel Core i5-8250U (Kaby Lake R, microcode 0xf4): 4C/8T, 0.4–3.4 GHz.
[[nodiscard]] CpuProfile kabylake_r_i5_8250u();

/// Intel Core i7-10510U (Comet Lake, microcode 0xf4): 4C/8T, 0.4–4.9 GHz.
[[nodiscard]] CpuProfile cometlake_i7_10510u();

/// All three paper profiles, in paper order.
[[nodiscard]] std::vector<CpuProfile> paper_profiles();

}  // namespace pv::sim
