#include "sim/voltage_regulator.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pv::sim {

VoltageRegulator::VoltageRegulator(RegulatorParams params) : params_(params) {
    if (params_.slew_mv_per_us <= 0.0) throw ConfigError("regulator slew must be positive");
    if (params_.write_latency < Picoseconds{0}) throw ConfigError("regulator latency negative");
}

void VoltageRegulator::write(VoltagePlane plane, Millivolts target, Picoseconds now) {
    Ramp& r = planes_[static_cast<std::size_t>(plane)];
    const Millivolts current = eval(r, now);
    r.start = current;
    r.target_mv = target;
    r.ramp_begin = now + params_.write_latency;
    const double delta_mv = std::abs((target - current).value());
    const double ramp_us = delta_mv / params_.slew_mv_per_us;
    r.ramp_end = r.ramp_begin + microseconds(ramp_us);
}

void VoltageRegulator::force(VoltagePlane plane, Millivolts value) {
    Ramp& r = planes_[static_cast<std::size_t>(plane)];
    r.start = value;
    r.target_mv = value;
    r.ramp_begin = Picoseconds{0};
    r.ramp_end = Picoseconds{0};
}

void VoltageRegulator::reset() { planes_ = {}; }

}  // namespace pv::sim
