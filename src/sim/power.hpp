// PlugVolt — package power/energy model with RAPL reporting.
//
// Undervolting exists because dynamic energy scales with V^2: every
// retired instruction costs  E_dyn = EPI * V^2  and the package leaks
// P_leak = L * V^2  continuously.  This model accumulates both — retire
// events at the instantaneous rail voltage, leakage integrated exactly
// over the regulator's linear ramps — and exposes the total through the
// RAPL MSR surface (MSR_RAPL_POWER_UNIT 0x606 / MSR_PKG_ENERGY_STATUS
// 0x611), so "how much battery does PlugVolt's clamp cost me?" is a
// measurable question (see bench_energy).
#pragma once

#include <cstdint>

#include "os/msr_regs.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pv::sim {

/// Per-profile energy coefficients.
struct PowerParams {
    /// Dynamic energy per retired instruction at 1 V, in nanojoules.
    double epi_nj_per_v2 = 0.35;
    /// Package leakage power at 1 V, in milliwatts.
    double leak_mw_per_v2 = 900.0;
};

/// MSR indices of the modeled RAPL interface (registry aliases).
inline constexpr std::uint32_t kMsrRaplPowerUnit = msr::kRaplPowerUnit;
inline constexpr std::uint32_t kMsrPkgEnergyStatus = msr::kPkgEnergyStatus;

/// Accumulates package energy.
class PowerModel {
public:
    explicit PowerModel(PowerParams params);

    /// Charge dynamic energy for `n` instructions retired at rail
    /// voltage `v`.
    void on_retire(std::uint64_t n, Millivolts v) { dynamic_j_ += retire_joules(n, v); }

    /// The dynamic energy on_retire(n, v) adds.
    [[nodiscard]] double retire_joules(std::uint64_t n, Millivolts v) const {
        const double volts = v.volts();
        return static_cast<double>(n) * params_.epi_nj_per_v2 * 1e-9 * volts * volts;
    }

    /// Integrate whole-package leakage over [from, to] with the rail
    /// moving linearly from `v_from` to `v_to` (exact for the quadratic
    /// integrand).  Returns the joules added.
    double integrate_leakage(Picoseconds from, Picoseconds to, Millivolts v_from,
                             Millivolts v_to) {
        const double joules = leakage_over(from, to, v_from, v_to);
        leakage_j_ += joules;
        return joules;
    }

    /// The leakage integrate_leakage() with the same arguments adds.
    [[nodiscard]] double leakage_over(Picoseconds from, Picoseconds to, Millivolts v_from,
                                      Millivolts v_to) const {
        if (to < from) throw SimError("leakage integration backwards in time");
        const double dt_s = (to - from).seconds();
        const double v0 = v_from.volts();
        const double v1 = v_to.volts();
        // Integral of (v0 + (v1-v0)t)^2 over t in [0,1] = (v0^2+v0*v1+v1^2)/3.
        const double mean_v2 = (v0 * v0 + v0 * v1 + v1 * v1) / 3.0;
        return params_.leak_mw_per_v2 * 1e-3 * mean_v2 * dt_s;
    }

    /// Store both accumulators: what a loop that added retire_joules()
    /// and leakage_over() increments to local copies ends with.
    void set_joules(double dynamic_j, double leakage_j) {
        dynamic_j_ = dynamic_j;
        leakage_j_ = leakage_j;
    }

    /// Total accumulated energy in joules.
    [[nodiscard]] double total_joules() const { return dynamic_j_ + leakage_j_; }
    [[nodiscard]] double dynamic_joules() const { return dynamic_j_; }
    [[nodiscard]] double leakage_joules() const { return leakage_j_; }

    /// MSR_PKG_ENERGY_STATUS: 32-bit counter in units of 2^-14 J,
    /// wrapping like the real register.
    [[nodiscard]] std::uint32_t rapl_energy_status() const;

    /// MSR_RAPL_POWER_UNIT with the energy-status unit field (bits 12:8)
    /// encoding 2^-14 J.
    [[nodiscard]] static std::uint64_t rapl_power_unit();

    /// Zero the accumulators (machine reboot).
    void reset();

    [[nodiscard]] const PowerParams& params() const { return params_; }

private:
    PowerParams params_;
    double dynamic_j_ = 0.0;
    double leakage_j_ = 0.0;
};

}  // namespace pv::sim
