// PlugVolt — SPECrate 2017 suite runner (the Table 2 harness).
//
// Measures each kernel's rate score on the simulated machine, with and
// without the polling countermeasure loaded, in both base and peak
// tunings.  The measurement is genuine: workload copies progress on all
// cores in lockstep windows of simulated time, and the polling kthreads'
// wakeups steal cycles from exactly those windows — overhead is whatever
// falls out, not an asserted constant.
//
// Rate anchoring: SPEC rate = copies * t_ref / t_measured.  We take the
// per-benchmark reference times t_ref such that the *without-polling*
// run reproduces the paper's Table 2 rate (their testbed anchor); the
// deltas — the actual subject of Table 2 — then emerge from the cycle
// accounting plus a small deterministic run-to-run jitter, mirroring how
// SPEC results scatter on real machines.
#pragma once

#include <vector>

#include "plugvolt/polling_module.hpp"
#include "plugvolt/safe_state.hpp"
#include "sim/cpu_profile.hpp"
#include "workload/workload.hpp"

namespace pv::workload {

/// Suite configuration.
struct SpecSuiteConfig {
    std::uint64_t seed = 2024;
    /// Work units each copy executes (cost-model instructions per unit
    /// come from the kernel).
    std::uint64_t units = 120;
    /// Lockstep accounting window.
    Picoseconds window = microseconds(100.0);
    /// All-core frequency for base tuning (0 = profile max minus 300 MHz,
    /// a typical all-core turbo) and peak tuning (0 = profile max).
    Megahertz base_freq{0.0};
    Megahertz peak_freq{0.0};
    /// Peak tuning's compiler-flag IPC bonus.
    double peak_ipc_bonus = 1.03;
    /// Run-to-run measurement jitter (1 sigma, fraction of elapsed).
    double noise_fraction = 0.003;
};

/// One Table 2 row.
struct SpecScore {
    std::string name;
    double base_rate_without = 0.0;
    double base_rate_with = 0.0;
    double peak_rate_without = 0.0;
    double peak_rate_with = 0.0;

    [[nodiscard]] double base_slowdown() const {
        return (base_rate_without - base_rate_with) / base_rate_without;
    }
    [[nodiscard]] double peak_slowdown() const {
        return (peak_rate_without - peak_rate_with) / peak_rate_without;
    }
};

/// Paper Table 2 anchors (Comet Lake, microcode 0xf4): the published
/// without-polling base and peak rates, in suite order.
struct PaperAnchor {
    const char* name;
    double base_rate;
    double peak_rate;
};
[[nodiscard]] const std::vector<PaperAnchor>& table2_anchors();

/// The Table 2 runner.
class SpecSuite {
public:
    SpecSuite(sim::CpuProfile profile, SpecSuiteConfig config);

    /// Measure one workload's rate at `freq` on a fresh machine.
    /// `with_polling` loads the countermeasure module first.
    /// `noise_salt` decorrelates the per-measurement jitter.
    [[nodiscard]] double measure_rate(Workload& workload, Megahertz freq, bool with_polling,
                                      const plugvolt::SafeStateMap& map,
                                      const plugvolt::PollingConfig& polling,
                                      double ipc_scale, double ref_seconds,
                                      std::uint64_t noise_salt);

    /// Run the full 23-benchmark, 4-configuration measurement.
    [[nodiscard]] std::vector<SpecScore> run(const plugvolt::SafeStateMap& map,
                                             const plugvolt::PollingConfig& polling);

private:
    sim::CpuProfile profile_;
    SpecSuiteConfig config_;
};

}  // namespace pv::workload
