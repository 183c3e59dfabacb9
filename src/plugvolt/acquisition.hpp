// PlugVolt — cost-aware acquisition for the row search's crash probes.
//
// Each candidate probe step s is scored by the expected information gain
// of its outcome divided by its expected cost.  For the crash boundary
// the outcome is a deterministic Bernoulli split of the posterior —
// crashed(s) <=> boundary <= s — so the expected posterior-entropy drop
// of probing s is exactly the binary entropy H2(p) of p = P(b <= s);
// with a uniform posterior the argmax is the median and the acquisition
// degenerates to bisection, which is the sanity anchor for the whole
// scheme.  The reboot term models the real-hardware asymmetry the paper
// leans on: a crashed probe costs a reboot, a surviving probe does not,
// so the expected cost of probing s is 1 + reboot_cost * p and the
// optimizer drifts shallow of the median exactly when reboots are
// expensive.
//
// Ties (plateaus of the score function) are resolved by seeded sampling
// from the caller's Rng — deterministic for a fixed sweep seed, which
// the acquisition-determinism PROP test asserts probe-for-probe.
#pragma once

#include <cstdint>

#include "plugvolt/boundary_posterior.hpp"
#include "util/rng.hpp"

namespace pv::plugvolt {

struct AcquisitionConfig {
    /// Relative cost of a crash-reboot on top of the probe itself (the
    /// paper's motivation for probe-thrifty characterization).  0 makes
    /// the acquisition pure information gain.
    double reboot_cost = 4.0;
    /// Geometric concentration of warm-start / interpolation priors.
    double prior_decay = 0.45;
    /// Floor mass every still-possible step keeps under any prior, so a
    /// wrong hint costs probes, never correctness.
    double prior_floor = 1e-9;
};

/// The crash score of probing step s, H2(P(b <= s)) /
/// (1 + reboot_cost * P(b <= s)): expected information gain per
/// expected cost, at one reboot cost, with the P(b <= s) at which it
/// peaks solved once (a few Newton steps, a few hundred ns): the
/// selection's scan starts there.  A row search keeps one for all its
/// selections.
class CrashScore {
public:
    /// Requires a non-negative reboot_cost.
    explicit CrashScore(double reboot_cost);

    [[nodiscard]] double reboot_cost() const { return reboot_cost_; }
    /// A lower bound on the P(b <= s) at which the score peaks; 0 when
    /// none could be certified.
    [[nodiscard]] double peak_floor() const { return peak_floor_; }

private:
    double reboot_cost_;
    double peak_floor_;
};

/// The next crash probe: argmax of the crash score over the
/// informative candidates [hard_lo, min(hard_hi - 1, max_step)], ties
/// drawn from `rng`.  Additions alone carry P(b <= s) up to the score's
/// peak; only the few candidates around it take logarithms, and the
/// scan stops once no later candidate can reach the best score.
/// Requires an uncertified posterior with hard_lo <= max_step.
[[nodiscard]] std::uint64_t select_crash_probe(const BoundaryPosterior& posterior,
                                               const CrashScore& crash_score,
                                               std::uint64_t max_step, Rng& rng);

}  // namespace pv::plugvolt
