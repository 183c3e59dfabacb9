#include "plugvolt/boundary_posterior.hpp"

#include <algorithm>
#include <cmath>

#include "check/assert.hpp"
#include "util/error.hpp"

namespace pv::plugvolt {

BoundaryPosterior::BoundaryPosterior(std::uint64_t support_max) { reset(support_max); }

void BoundaryPosterior::reset(std::uint64_t support_max) {
    open_bracket(support_max);
    std::fill(w_.begin(), w_.end(), 1.0 / static_cast<double>(support_max));
}

void BoundaryPosterior::reset(std::uint64_t support_max, std::uint64_t center,
                              std::span<const double> powers, double floor) {
    open_bracket(support_max);
    recenter(center, powers, floor);  // writes every weight of the bracket
}

void BoundaryPosterior::open_bracket(std::uint64_t support_max) {
    if (support_max == 0)
        throw ConfigError("a boundary posterior needs a non-empty support");
    w_.resize(support_max);
    hard_lo_ = 1;
    hard_hi_ = support_max;
}

std::vector<double> BoundaryPosterior::decay_powers(double decay, std::uint64_t count) {
    if (decay <= 0.0 || decay >= 1.0)
        throw ConfigError("prior decay must lie in (0, 1)");
    std::vector<double> powers(count);
    for (std::uint64_t k = 0; k < count; ++k)
        powers[k] = std::pow(decay, static_cast<double>(k));
    return powers;
}

void BoundaryPosterior::recenter(std::uint64_t center, double decay, double floor) {
    recenter(center, decay_powers(decay, reach(center) + 1), floor);
}

void BoundaryPosterior::recenter(std::uint64_t center, std::span<const double> powers,
                                 double floor) {
    if (floor <= 0.0) throw ConfigError("prior floor must be positive");
    PV_ASSERT(reach(center) < powers.size(), "a table of " << powers.size()
                                                 << " decay powers cannot reach distance "
                                                 << reach(center));
    for (std::uint64_t b = hard_lo_; b <= hard_hi_; ++b)
        w_[b - 1] = floor + powers[b > center ? b - center : center - b];
    renormalize();
}

std::uint64_t BoundaryPosterior::reach(std::uint64_t center) const {
    return std::max(center > hard_lo_ ? center - hard_lo_ : hard_lo_ - center,
                    center > hard_hi_ ? center - hard_hi_ : hard_hi_ - center);
}

void BoundaryPosterior::restrict_leq(std::uint64_t s) {
    if (s >= hard_hi_) return;
    PV_ASSERT(s >= hard_lo_, "contradictory hard evidence: boundary <= "
                                 << s << " but bracket is [" << hard_lo_ << ", "
                                 << hard_hi_ << "]");
    for (std::uint64_t b = s + 1; b <= hard_hi_; ++b) w_[b - 1] = 0.0;
    hard_hi_ = s;
    renormalize();
}

void BoundaryPosterior::restrict_geq(std::uint64_t s) {
    if (s <= hard_lo_) return;
    PV_ASSERT(s <= hard_hi_, "contradictory hard evidence: boundary >= "
                                 << s << " but bracket is [" << hard_lo_ << ", "
                                 << hard_hi_ << "]");
    for (std::uint64_t b = hard_lo_; b < s; ++b) w_[b - 1] = 0.0;
    hard_lo_ = s;
    renormalize();
}

std::uint64_t BoundaryPosterior::median() const {
    // Renormalized weights sum to an exact half only up to rounding; the
    // slack keeps a uniform bracket's median on its exact midpoint.
    constexpr double kHalf = 0.5 + 1e-12;
    std::uint64_t s = hard_lo_;
    double p = w_[s - 1];
    for (std::uint64_t b = s + 1; b < hard_hi_ && p + w_[b - 1] <= kHalf; ++b) {
        p += w_[b - 1];
        s = b;
    }
    return s;
}

double BoundaryPosterior::weight_sum() const {
    double total = 0.0;
    for (std::uint64_t b = hard_lo_; b <= hard_hi_; ++b) total += w_[b - 1];
    return total;
}

void BoundaryPosterior::renormalize() {
    const double total = weight_sum();
    if (total > 0.0) {
        // Two quotients per iteration, which compilers issue as one
        // packed division: IEEE division rounds each lane exactly as the
        // scalar one does, so the weights are bit-equal, in about half
        // the divider time.
        double* w = w_.data() + (hard_lo_ - 1);
        const std::uint64_t n = hard_hi_ - hard_lo_ + 1;
        std::uint64_t i = 0;
        for (; i + 2 <= n; i += 2) {
            w[i] /= total;
            w[i + 1] /= total;
        }
        if (i < n) w[i] /= total;
        return;
    }
    // Every surviving weight underflowed: fall back to uniform over the
    // still-possible bracket.  Hard exclusions are bracket moves, so
    // this cannot resurrect excluded steps.
    const double uniform = 1.0 / static_cast<double>(hard_hi_ - hard_lo_ + 1);
    for (std::uint64_t b = hard_lo_; b <= hard_hi_; ++b) w_[b - 1] = uniform;
}

}  // namespace pv::plugvolt
