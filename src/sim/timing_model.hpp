// PlugVolt — sequential-circuit timing model (paper Sec. 3, Eq. 1–3).
//
// The paper's safe-state definition is the classic setup constraint
//
//     T_src + T_prop <= T_clk - T_setup - T_eps            (Eq. 1)
//
// where the left side grows as voltage drops (slower transistor
// switching) and the right side is set purely by core frequency.  We
// model the combinational delay with the alpha-power law
//
//     D(V) = C * V / (V - Vth)^alpha
//
// which captures both effects the paper cites: decreased voltage swings
// and slower switching near threshold.  T_src is the clock->Q delay of
// the launching flop and T_prop the combinational settle time; both
// scale with D(V) (15% / 85% split, exposed for the Fig. 1 bench).
#pragma once

#include "sim/cpu_profile.hpp"
#include "sim/instr.hpp"
#include "util/units.hpp"

namespace pv::sim {

/// Breakdown of Eq. 1 terms at a given operating point, in picoseconds.
struct TimingBreakdown {
    double t_src;      ///< clock->Q of the launching flop F1
    double t_prop;     ///< combinational settle time into D2
    double t_clk;      ///< clock period 1/f
    double t_setup;    ///< setup time of the capturing flop F2
    double t_eps;      ///< worst-case clock uncertainty
    /// Eq. 1 margin: (t_clk - t_setup - t_eps) - (t_src + t_prop).
    /// Negative means the deterministic constraint is already violated.
    [[nodiscard]] double margin() const {
        return (t_clk - t_setup - t_eps) - (t_src + t_prop);
    }
};

/// Deterministic timing physics for one CPU profile.
class TimingModel {
public:
    /// Validates the parameters (positive constants, alpha >= 1).
    explicit TimingModel(TimingParams params);

    /// Worst-case (imul-path) combinational delay at supply voltage `v`,
    /// in picoseconds.  Returns +infinity at or below threshold — the
    /// circuit cannot evaluate at all.
    [[nodiscard]] double path_delay_ps(Millivolts v) const;

    /// Path delay for an instruction class (path_factor * imul delay).
    [[nodiscard]] double path_delay_ps(Millivolts v, InstrClass c) const;

    /// Available slack budget at frequency `f`: T_clk - T_setup - T_eps.
    [[nodiscard]] double slack_ps(Megahertz f) const {
        return f.period_ps() - params_.setup_time_ps - params_.clock_uncertainty_ps;
    }

    /// Eq. 1 margin for (f, v) on class `c`; negative = timing violation
    /// (the paper's Eq. 3 / unsafe state).
    [[nodiscard]] double margin_ps(Megahertz f, Millivolts v, InstrClass c) const;

    /// Full Eq. 1 term breakdown (for the Fig. 1 reproduction).
    [[nodiscard]] TimingBreakdown breakdown(Megahertz f, Millivolts v, InstrClass c) const;

    /// The lowest supply voltage at which class `c` still meets timing at
    /// `f` (deterministic part only); found by bisection to < 0.01 mV.
    [[nodiscard]] Millivolts critical_voltage(Megahertz f, InstrClass c) const;

    [[nodiscard]] const TimingParams& params() const { return params_; }

private:
    TimingParams params_;
};

}  // namespace pv::sim
