// PlugVolt — probabilistic fault model on top of the timing physics.
//
// Deterministic timing says *when* the constraint is violated; real
// silicon faults stochastically around that boundary because of
// cycle-to-cycle delay noise.  We model the per-operation fault
// probability as
//
//     p(f, V, class) = Phi( (D_class(V) - slack(f)) / (sigma_frac * D(V)) )
//
// and declare a machine crash as soon as even slightly-shorter control
// paths (crash_path_factor * D) violate timing deterministically — at
// that point kernel/control state corrupts within microseconds, which is
// the "system crash" the paper's characterization sweeps into.
//
// Three consequences match the published attack literature and the
// paper's figures: (1) imul faults first (longest path); (2) a band of
// tens of mV separates first observable faults from crash at high
// frequency, narrowing at low frequency where delay-vs-voltage is a
// cliff; (3) fault-onset offsets shrink in magnitude as frequency grows.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/timing_model.hpp"
#include "sim/vf_curve.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pv::sim {

/// Stochastic fault behaviour for one CPU profile.
class FaultModel {
public:
    FaultModel(TimingModel timing, VfCurve vf);

    /// Per-operation fault probability at operating point (f, v).
    /// `delay_scale` models environmental slowdown of the critical path
    /// (thermal: hot silicon switches slower; 1.0 = the 25 C reference).
    [[nodiscard]] double fault_probability(Megahertz f, Millivolts v, InstrClass c,
                                           double delay_scale = 1.0) const;

    /// True once control-path timing is deterministically violated —
    /// the machine crashes rather than computing wrong values.
    [[nodiscard]] bool would_crash(Megahertz f, Millivolts v,
                                   double delay_scale = 1.0) const;

    /// The two above with the operating point already reduced to
    /// `slack_ps` == timing().slack_ps(f) and `delay_ps` ==
    /// timing().path_delay_ps(v), for callers that memoize those terms.
    /// These hold the only copy of each formula; keep the association
    /// order (DESIGN 5f) so memoized and direct results stay bit-equal.
    [[nodiscard]] double fault_probability_at(double slack_ps, double delay_ps, InstrClass c,
                                              double delay_scale) const {
        const double d = delay_scale * (path_factor(c) * delay_ps);
        if (!std::isfinite(d)) return 1.0;
        const double sigma = timing_.params().sigma_fraction * delay_scale * delay_ps;
        return normal_cdf((d - slack_ps) / sigma);
    }
    [[nodiscard]] bool would_crash_at(double slack_ps, double delay_ps,
                                      double delay_scale) const {
        const double d = delay_scale * delay_ps;
        if (!std::isfinite(d)) return true;
        return timing_.params().crash_path_factor * d > slack_ps;
    }

    /// Nominal (fused VF curve) voltage at `f`.
    [[nodiscard]] Millivolts nominal_voltage(Megahertz f) const { return vf_.nominal(f); }

    /// The undervolt offset at which faults become *observable* in a run
    /// of `n_ops` operations of class `c` at frequency `f` (expected
    /// fault count reaches ~3).  Negative.  Found by bisection.
    [[nodiscard]] Millivolts onset_offset(Megahertz f, InstrClass c,
                                          std::uint64_t n_ops = 1'000'000,
                                          double delay_scale = 1.0) const;

    /// The undervolt offset at which the machine crashes at `f`.
    /// Strictly deeper (more negative) than onset at every frequency.
    [[nodiscard]] Millivolts crash_offset(Megahertz f, double delay_scale = 1.0) const;

    /// Sample how many of `n_ops` operations fault at probability `p`.
    [[nodiscard]] std::uint64_t sample_fault_count(Rng& rng, std::uint64_t n_ops, double p) const;

    /// Corrupt a correct 64-bit result the way an undervolt fault does:
    /// one or two flipped bits, biased toward the multiplier's upper
    /// partial-product columns (bits 16..63).
    [[nodiscard]] std::uint64_t corrupt_value(Rng& rng, std::uint64_t correct) const;

    [[nodiscard]] const TimingModel& timing() const { return timing_; }
    [[nodiscard]] const VfCurve& vf() const { return vf_; }

private:
    TimingModel timing_;
    VfCurve vf_;
};

}  // namespace pv::sim
