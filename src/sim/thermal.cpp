#include "sim/thermal.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pv::sim {

ThermalModel::ThermalModel(ThermalParams params)
    : params_(params), temp_c_(params.ambient_c) {
    if (params_.r_th_c_per_w <= 0.0 || params_.tau_ms <= 0.0)
        throw ConfigError("thermal constants must be positive");
    if (params_.tjmax_c <= params_.ambient_c)
        throw ConfigError("Tjmax must be above ambient");
    if (params_.delay_per_c < 0.0) throw ConfigError("delay sensitivity must be >= 0");
}

void ThermalModel::update(Picoseconds t, double avg_power_w) {
    if (t < last_update_) throw SimError("thermal update backwards in time");
    const double dt_ms = (t - last_update_).milliseconds();
    last_update_ = t;
    if (dt_ms <= 0.0) return;
    temp_c_ = relaxed(temp_c_, avg_power_w, decay(dt_ms));
}

double ThermalModel::decay(double dt_ms) {
    if (dt_ms != decay_dt_ms_) {
        decay_dt_ms_ = dt_ms;
        decay_ = std::exp(-dt_ms / params_.tau_ms);
    }
    return decay_;
}

std::uint64_t ThermalModel::therm_status_msr() const {
    const double below = std::max(0.0, params_.tjmax_c - temp_c_);
    const auto readout = static_cast<std::uint64_t>(std::llround(below)) & 0x7F;
    const std::uint64_t valid = 1ULL << 31;
    return (readout << 16) | valid;
}

std::uint64_t ThermalModel::temperature_target_msr() const {
    const auto tjmax = static_cast<std::uint64_t>(std::llround(params_.tjmax_c)) & 0xFF;
    return tjmax << 16;
}

void ThermalModel::force_temperature(double celsius) { temp_c_ = celsius; }

void ThermalModel::reset() {
    temp_c_ = params_.ambient_c;
    // last_update_ intentionally kept: the clock is monotone across boots.
}

void ThermalModel::rewind() {
    temp_c_ = params_.ambient_c;
    last_update_ = Picoseconds{};
}

}  // namespace pv::sim
