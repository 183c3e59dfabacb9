// PlugVolt — package voltage regulator.
//
// OCM writes do not change voltage instantaneously: the SVID command
// takes effect after a fixed latency and the rail then slews linearly
// toward the target.  The paper calls this out as one of the two
// turnaround-time contributors of the kernel-module deployment (Sec. 5),
// so the model must expose both the latency and the ramp.  Offsets are
// evaluated lazily — closed-form in time — so no events are needed.
#pragma once

#include <array>

#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"
#include "util/units.hpp"

namespace pv::sim {

/// Per-plane offset regulator with command latency and linear slew.
class VoltageRegulator {
public:
    explicit VoltageRegulator(RegulatorParams params);

    /// Issue a new target offset for `plane` at time `now`.  The ramp
    /// starts at now + write_latency from whatever the rail measured at
    /// that moment and slews toward `target`.
    void write(VoltagePlane plane, Millivolts target, Picoseconds now);

    /// Offset actually applied on `plane` at time `t`.
    [[nodiscard]] Millivolts offset_at(VoltagePlane plane, Picoseconds t) const {
        return eval(planes_[static_cast<std::size_t>(plane)], t);
    }

    /// The most recently commanded target for `plane`.
    [[nodiscard]] Millivolts target(VoltagePlane plane) const {
        return planes_[static_cast<std::size_t>(plane)].target_mv;
    }

    /// Time at which the rail reaches the commanded target (>= the write
    /// time); equals the write time when already settled.
    [[nodiscard]] Picoseconds settle_time(VoltagePlane plane) const {
        return planes_[static_cast<std::size_t>(plane)].ramp_end;
    }

    /// Immediately pin a plane to `value` with no ramp (boot/reset state,
    /// or initializing a rail that models an absolute voltage).
    void force(VoltagePlane plane, Millivolts value);

    /// Reset all planes to zero offset immediately (machine reboot).
    void reset();

    [[nodiscard]] const RegulatorParams& params() const { return params_; }

private:
    struct Ramp {
        Millivolts start{};       // offset when the ramp begins
        Millivolts target_mv{};
        Picoseconds ramp_begin{}; // write time + latency
        Picoseconds ramp_end{};
    };

    [[nodiscard]] static Millivolts eval(const Ramp& r, Picoseconds t) {
        // Settled first: from ramp_end on the rail is at its target, also
        // after a ramp too short to span one picosecond (ramp_begin ==
        // ramp_end), so settle_time() is exact.
        if (t >= r.ramp_end) return r.target_mv;
        if (t <= r.ramp_begin) return r.start;
        const double span_us = (r.ramp_end - r.ramp_begin).microseconds();
        const double done_us = (t - r.ramp_begin).microseconds();
        const double frac = span_us <= 0.0 ? 1.0 : done_us / span_us;
        return r.start + (r.target_mv - r.start) * frac;
    }

    RegulatorParams params_;
    std::array<Ramp, 5> planes_{};
};

}  // namespace pv::sim
