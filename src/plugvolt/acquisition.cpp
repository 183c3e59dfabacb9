#include "plugvolt/acquisition.hpp"

#include <cmath>
#include <vector>

#include "check/assert.hpp"

namespace pv::plugvolt {

namespace {

[[nodiscard]] double binary_entropy(double p) {
    if (p <= 0.0 || p >= 1.0) return 0.0;
    return -(p * std::log(p) + (1.0 - p) * std::log(1.0 - p));
}

[[nodiscard]] double score_at(double p, double reboot_cost) {
    return binary_entropy(p) / (1.0 + reboot_cost * p);
}

}  // namespace

double crash_probe_score(const BoundaryPosterior& posterior, std::uint64_t s,
                         double reboot_cost) {
    return score_at(posterior.p_leq(s), reboot_cost);
}

std::uint64_t select_crash_probe(const BoundaryPosterior& posterior,
                                 const AcquisitionConfig& config,
                                 std::uint64_t max_step, Rng& rng) {
    PV_ASSERT(!posterior.certified(), "acquisition asked for a probe of a certified boundary");
    PV_ASSERT(config.reboot_cost >= 0.0, "reboot_cost must be non-negative");
    const std::uint64_t lo = posterior.hard_lo();
    const std::uint64_t hi =
        posterior.hard_hi() - 1 < max_step ? posterior.hard_hi() - 1 : max_step;
    PV_ASSERT(lo <= hi, "no informative probe in bracket [" << lo << ", "
                                                            << posterior.hard_hi() << "]");
    // One pass for the argmax, collecting the tie plateau as it moves.
    // p accumulates the weights in p_leq's order, so every score is the
    // one crash_probe_score(posterior, s, .) returns, bit for bit.
    //
    // Early exit: f(p) = H2(p) / (1 + c p) is quasi-concave in p for
    // c >= 0 (H2 - t (1 + c p) is concave for every t, so each
    // superlevel set is an interval), and the computed p never
    // decreases along s (the weights are non-negative and rounded
    // addition is monotone).  So once f at some s falls below the best
    // score seen earlier, f at every later s is at most f at that s.
    // Each computed score is within eps of the exact f of its computed
    // p, eps a few 1e-16 (H2 <= ln 2, a few roundings, a divisor >= 1).
    // A computed score below best - kTieTolerance - kRoundingMargin,
    // with kRoundingMargin > 2 eps, therefore has an exact score below
    // the earlier best, and every later computed score stays below
    // best - kTieTolerance: none can join the plateau or replace the
    // best, and the scan stops without changing the result.
    constexpr double kTieTolerance = 1e-12;
    constexpr double kRoundingMargin = 1e-13;
    double best = -1.0;
    std::vector<std::uint64_t> plateau;
    double p = 0.0;
    for (std::uint64_t s = lo; s <= hi; ++s) {
        p += posterior.weight(s);
        const double score = score_at(p, config.reboot_cost);
        if (score > best + kTieTolerance) {
            best = score;
            plateau.clear();
            plateau.push_back(s);
        } else if (score >= best - kTieTolerance) {
            plateau.push_back(s);
        } else if (score < best - kTieTolerance - kRoundingMargin) {
            break;
        }
    }
    // Seeded deterministic sampling across the plateau; a singleton
    // plateau (the generic case) still burns one draw so the stream
    // position is independent of score-landscape accidents.
    return plateau[rng.uniform_below(plateau.size())];
}

}  // namespace pv::plugvolt
