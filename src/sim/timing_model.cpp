#include "sim/timing_model.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace pv::sim {
namespace {
// Share of the worst-case path delay attributed to the launching flop's
// clock->Q (T_src) versus the combinational network (T_prop).
constexpr double kSrcShare = 0.15;
}  // namespace

TimingModel::TimingModel(TimingParams params) : params_(params) {
    if (params_.threshold_voltage <= Millivolts{0.0})
        throw ConfigError("threshold voltage must be positive");
    if (params_.alpha < 1.0) throw ConfigError("alpha must be >= 1");
    if (params_.path_constant_ps <= 0.0) throw ConfigError("path constant must be positive");
    if (params_.setup_time_ps < 0.0 || params_.clock_uncertainty_ps < 0.0)
        throw ConfigError("setup/uncertainty must be non-negative");
    if (params_.sigma_fraction <= 0.0) throw ConfigError("sigma fraction must be positive");
    if (params_.crash_path_factor <= 0.0 || params_.crash_path_factor > 1.0)
        throw ConfigError("crash path factor must be in (0,1]");
}

double TimingModel::path_delay_ps(Millivolts v) const {
    const double vv = v.volts();
    const double vth = params_.threshold_voltage.volts();
    if (vv <= vth) return std::numeric_limits<double>::infinity();
    return params_.path_constant_ps * vv / std::pow(vv - vth, params_.alpha);
}

double TimingModel::path_delay_ps(Millivolts v, InstrClass c) const {
    return path_factor(c) * path_delay_ps(v);
}

double TimingModel::margin_ps(Megahertz f, Millivolts v, InstrClass c) const {
    return slack_ps(f) - path_delay_ps(v, c);
}

TimingBreakdown TimingModel::breakdown(Megahertz f, Millivolts v, InstrClass c) const {
    const double d = path_delay_ps(v, c);
    return TimingBreakdown{
        .t_src = kSrcShare * d,
        .t_prop = (1.0 - kSrcShare) * d,
        .t_clk = f.period_ps(),
        .t_setup = params_.setup_time_ps,
        .t_eps = params_.clock_uncertainty_ps,
    };
}

Millivolts TimingModel::critical_voltage(Megahertz f, InstrClass c) const {
    const double slack = slack_ps(f);
    if (slack <= 0.0)
        throw ConfigError("frequency too high: no positive slack at any voltage");
    // path_delay is strictly decreasing in V above threshold, so the
    // critical voltage is the unique root of delay(V) == slack.
    double lo = params_.threshold_voltage.value() + 1e-6;
    double hi = 3000.0;  // 3 V — far above any operating point
    if (path_delay_ps(Millivolts{hi}, c) > slack)
        throw ConfigError("slack unreachable even at maximum model voltage");
    for (int i = 0; i < 100 && (hi - lo) > 0.01; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (path_delay_ps(Millivolts{mid}, c) > slack)
            lo = mid;
        else
            hi = mid;
    }
    return Millivolts{hi};
}

}  // namespace pv::sim
