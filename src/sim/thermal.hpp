// PlugVolt — die thermal model.
//
// Timing faults are temperature-sensitive: hot transistors switch
// slower, so the same (frequency, offset) pair that is safe on a cold
// die can fault on a hot one.  The die follows a first-order RC model
//
//     T(t) -> T_ambient + P * R_th      with time constant tau
//
// driven by the package power the PowerModel accumulates.  The
// TimingModel consumes the result as a delay scale factor
// (1 + k_T * (T - 25C)).  Exposed through the architectural MSRs
// IA32_THERM_STATUS (0x19C, digital readout = Tjmax - T) and
// IA32_TEMPERATURE_TARGET (0x1A2, Tjmax).
#pragma once

#include <algorithm>
#include <cstdint>

#include "os/msr_regs.hpp"
#include "util/units.hpp"

namespace pv::sim {

/// Per-profile thermal constants.
struct ThermalParams {
    double ambient_c = 25.0;        ///< case/ambient temperature
    double r_th_c_per_w = 5.0;      ///< junction-to-ambient thermal resistance
    double tau_ms = 20.0;           ///< die thermal time constant
    double tjmax_c = 100.0;         ///< throttle/shutdown threshold
    /// Delay sensitivity: fractional critical-path slowdown per Kelvin
    /// above 25 C (positive: hotter = slower; 0.05%/K is typical for
    /// logic dominated by gate delay at nominal voltages).
    double delay_per_c = 0.0005;
};

/// MSR indices of the modeled thermal interface (registry aliases).
inline constexpr std::uint32_t kMsrThermStatus = msr::kThermStatus;
inline constexpr std::uint32_t kMsrTemperatureTarget = msr::kTemperatureTarget;

/// Lazily-evaluated die temperature.
class ThermalModel {
public:
    explicit ThermalModel(ThermalParams params);

    /// Advance the state to time `t`, given the average package power
    /// dissipated since the last update.
    void update(Picoseconds t, double avg_power_w);

    /// Die temperature at the last update, in Celsius.
    [[nodiscard]] double temperature_c() const { return temp_c_; }

    /// Critical-path delay scale factor at the current temperature.
    [[nodiscard]] double delay_scale() const { return delay_scale_at(temp_c_); }

    /// The delay scale at a die temperature of `temp_c`.
    [[nodiscard]] double delay_scale_at(double temp_c) const {
        return 1.0 + params_.delay_per_c * std::max(0.0, temp_c - 25.0);
    }

    // update()'s arithmetic, for a loop that keeps the temperature in a
    // local (Machine's settled-op runs): the factor exp(-dt_ms / tau)
    // one update dt_ms after the last applies (memoized), the
    // temperature it leaves at `avg_power_w`, and a store of the state
    // such updates end in.
    [[nodiscard]] double decay(double dt_ms);
    [[nodiscard]] double relaxed(double temp_c, double avg_power_w, double decay_factor) const {
        const double steady = params_.ambient_c + avg_power_w * params_.r_th_c_per_w;
        return steady + (temp_c - steady) * decay_factor;
    }
    void set_state(Picoseconds last_update, double temp_c) {
        last_update_ = last_update;
        temp_c_ = temp_c;
    }
    [[nodiscard]] Picoseconds last_update() const { return last_update_; }

    /// True once the die reached Tjmax (PROCHOT would assert).
    [[nodiscard]] bool at_tjmax() const { return temp_c_ >= params_.tjmax_c; }

    /// IA32_THERM_STATUS digital readout field (bits 22:16): degrees
    /// below Tjmax, clamped at 0.
    [[nodiscard]] std::uint64_t therm_status_msr() const;

    /// IA32_TEMPERATURE_TARGET with Tjmax in bits 23:16.
    [[nodiscard]] std::uint64_t temperature_target_msr() const;

    /// Pin the die to a temperature (test/bench hook — models a
    /// preheated or chilled part).
    void force_temperature(double celsius);

    /// Back to ambient (machine reboot happens after a long power-off in
    /// this model).  Keeps the update timestamp: the clock is monotone
    /// across reboots.
    void reset();

    /// Back to ambient AND rewind the update timestamp to zero — for
    /// Machine::reset, which restarts the simulated clock itself.
    void rewind();

    [[nodiscard]] const ThermalParams& params() const { return params_; }

private:
    ThermalParams params_;
    double temp_c_;
    Picoseconds last_update_{};
    // exp(-dt_ms / tau) for the last dt_ms update() saw: every op at one
    // frequency advances by the same dt.  Starts as the genuine dt = 0
    // pair, so the memo never holds a value its key does not produce.
    double decay_dt_ms_ = 0.0;
    double decay_ = 1.0;
};

}  // namespace pv::sim
