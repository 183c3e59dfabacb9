// PlugVolt — discrete posterior over one boundary step of a frequency row.
//
// The row search (row_search.hpp) models each boundary (crash, fault
// onset) of a frequency column as an unknown 1-based offset step b in
// {1 .. n}; for the crash, n = sweep_steps() + 1 so the "no crash inside
// the sweep" verdict is a first-class support point.
//
// Observations are hard restrictions.  For the crash they come from
// deterministic evidence: a crashed cell at step s proves b <= s, a
// surviving cell proves b >= s + 1 (the crash predicate is a
// deterministic monotone threshold).  These zero out
// support permanently and can only SHRINK the certified bracket
// [hard_lo, hard_hi]; the PROP tests pin that monotonicity.  Soft priors
// (recenter) reshape the weights inside the bracket and never move it.
//
// Determinism: weights are plain doubles updated in call order; there is
// no clock and no entropy source anywhere — sampling (used by the
// acquisition tie-break) draws from the caller's seeded util::Rng.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace pv::plugvolt {

class BoundaryPosterior {
public:
    /// Uniform prior over support {1 .. support_max}.  Throws ConfigError
    /// when the support is empty.
    explicit BoundaryPosterior(std::uint64_t support_max);

    /// Back to the uniform prior over {1 .. support_max}, bit-equal to a
    /// fresh posterior, reusing the storage (no allocation once it has
    /// held that many steps).  Throws ConfigError when the support is
    /// empty.
    void reset(std::uint64_t support_max);

    /// reset(support_max) then recenter(center, powers, floor), bit-equal,
    /// without the uniform fill that recenter() overwrites at once.
    void reset(std::uint64_t support_max, std::uint64_t center, std::span<const double> powers,
               double floor);

    /// Re-shape the (soft) prior around `center`: weight
    /// floor + decay^|b - center| per step, renormalized.  Used for
    /// lot-neighbour warm starts and anchor-interpolation predictions;
    /// the floor keeps every still-possible step reachable, so a wrong
    /// prior costs probes, never correctness.  Hard-excluded steps stay
    /// excluded.
    void recenter(std::uint64_t center, double decay, double floor);

    /// recenter() with decay^k read from `powers` (a decay_powers()
    /// table covering every |b - center| in the bracket) instead of one
    /// std::pow per step; the weights are bit-equal.
    void recenter(std::uint64_t center, std::span<const double> powers, double floor);

    /// decay^k for k in [0, count), each from std::pow(decay, double(k))
    /// — the table recenter() takes.  Throws ConfigError unless
    /// decay lies in (0, 1).
    [[nodiscard]] static std::vector<double> decay_powers(double decay, std::uint64_t count);

    /// Hard evidence: the boundary is at or above step... precisely,
    /// b <= s (e.g. step s crashed / faulted).  No-op beyond the current
    /// bracket; tightens hard_hi otherwise.
    void restrict_leq(std::uint64_t s);

    /// Hard evidence: b >= s (e.g. step s - 1 survived clean).
    void restrict_geq(std::uint64_t s);

    /// P(b <= s) under the current posterior.
    [[nodiscard]] double p_leq(std::uint64_t s) const;

    /// Weight of step b in {1 .. support_max}; zero outside the bracket.
    /// Summing weight(hard_lo()) .. weight(s) in order gives p_leq(s)
    /// bit for bit, which is what lets the acquisition carry P(b <= s)
    /// with one addition per step.
    [[nodiscard]] double weight(std::uint64_t b) const { return w_[b - 1]; }

    /// Shannon entropy (nats) of the posterior.
    [[nodiscard]] double entropy() const;

    /// Lower posterior median: the highest step s < hard_hi with
    /// P(b <= s) <= 1/2, or hard_lo when P(b <= hard_lo) > 1/2.  Always a
    /// step whose outcome moves an uncertified bracket.
    [[nodiscard]] std::uint64_t median() const;

    /// Inverse-CDF draw from the posterior (Thompson-style candidate
    /// generation); deterministic given the Rng state.
    [[nodiscard]] std::uint64_t sample(Rng& rng) const;

    /// Certified bracket: every step outside [hard_lo, hard_hi] has been
    /// EXCLUDED by hard evidence.  Monotone non-widening by construction.
    [[nodiscard]] std::uint64_t hard_lo() const { return hard_lo_; }
    [[nodiscard]] std::uint64_t hard_hi() const { return hard_hi_; }
    [[nodiscard]] std::uint64_t width() const { return hard_hi_ - hard_lo_; }

    /// The stopping rule: the bracket has collapsed to one step, which
    /// is exactly the bisection bracket invariant (!pred(b - 1) &&
    /// pred(b)) — a 0-cell certificate, stronger than the 1-cell target.
    [[nodiscard]] bool certified() const { return hard_lo_ == hard_hi_; }

private:
    /// Size the support to {1 .. support_max} and open the bracket over
    /// it, leaving the weights to the caller.
    void open_bracket(std::uint64_t support_max);
    void renormalize();
    /// Largest |b - center| over the bracket.
    [[nodiscard]] std::uint64_t reach(std::uint64_t center) const;
    [[nodiscard]] double weight_sum() const;

    std::vector<double> w_;  // w_[i] is the weight of step i + 1
    std::uint64_t hard_lo_ = 1;
    std::uint64_t hard_hi_ = 1;
};

}  // namespace pv::plugvolt
