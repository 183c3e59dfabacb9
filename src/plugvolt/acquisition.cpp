#include "plugvolt/acquisition.hpp"

#include <array>
#include <cmath>

#include "check/assert.hpp"

namespace pv::plugvolt {

namespace {

/// Scores within this distance of the best tie with it.
constexpr double kTieTolerance = 1e-12;
/// Above twice the rounding error of a computed score (see below).
constexpr double kRoundingMargin = 1e-13;
/// Prefix sums kept for the walk back from the score's peak.
constexpr std::uint64_t kWalkBack = 8;

[[nodiscard]] double binary_entropy(double p) {
    if (p <= 0.0 || p >= 1.0) return 0.0;
    return -(p * std::log(p) + (1.0 - p) * std::log(1.0 - p));
}

[[nodiscard]] double score_at(double p, double reboot_cost) {
    return binary_entropy(p) / (1.0 + reboot_cost * p);
}

/// CrashScore::peak_floor(): a lower bound on the p at which
/// f(p) = H2(p) / (1 + c p) peaks, or 0 when none is certified.
/// f'(p) has the sign of g(p) = (1 + c) ln(1 - p) - ln p (expand
/// H2'(p) (1 + c p) - c H2(p)), which falls strictly on (0, 1): f rises
/// strictly below g's one root p* and falls above it.  In the logit
/// u = ln(p / (1 - p)) the root solves G(u) = u + c ln(1 + e^u) = 0,
/// with G increasing and convex, so Newton from u = 0
/// (G(0) = c ln 2 >= 0) descends monotonically onto it (5 steps at
/// c = 4).  The bound sits 1e-6 relative below that root and is kept
/// only where g is clearly positive, so it lies below the exact p*
/// whatever the rounding; a failed solve (an infinite cost) gives 0.
[[nodiscard]] double solve_peak_floor(double c) {
    double u = 0.0;
    for (int i = 0; i < 64; ++i) {
        const double e = std::exp(u);
        const double step = (u + c * std::log1p(e)) / (1.0 + c * e / (1.0 + e));
        u -= step;
        if (!(step > 1e-12)) break;
    }
    const double bound = (1.0 - 1e-6) / (1.0 + std::exp(-u));
    return (1.0 + c) * std::log1p(-bound) - std::log(bound) > 1e-9 ? bound : 0.0;
}

}  // namespace

double crash_probe_score(const BoundaryPosterior& posterior, std::uint64_t s,
                         double reboot_cost) {
    return score_at(posterior.p_leq(s), reboot_cost);
}

CrashScore::CrashScore(double reboot_cost) : reboot_cost_(reboot_cost) {
    PV_ASSERT(reboot_cost >= 0.0, "reboot_cost must be non-negative");
    peak_floor_ = solve_peak_floor(reboot_cost);
}

std::uint64_t select_crash_probe(const BoundaryPosterior& posterior,
                                 const CrashScore& crash_score, std::uint64_t max_step,
                                 Rng& rng) {
    PV_ASSERT(!posterior.certified(), "acquisition asked for a probe of a certified boundary");
    const double c = crash_score.reboot_cost();
    const std::uint64_t lo = posterior.hard_lo();
    const std::uint64_t hi =
        posterior.hard_hi() - 1 < max_step ? posterior.hard_hi() - 1 : max_step;
    PV_ASSERT(lo <= hi, "no informative probe in bracket [" << lo << ", "
                                                            << posterior.hard_hi() << "]");
    // The full scan: for s = lo .. hi, p += weight(s) and score p; a
    // score above best + kTieTolerance starts a new tie plateau {s}, one
    // within kTieTolerance of best joins it, and the plateau is drawn
    // from.  p accumulates the weights in p_leq's order, so every score
    // is the one crash_probe_score(posterior, s, .) returns, bit for
    // bit.  Each computed score is within eps of the exact f of its
    // computed p, eps a few 1e-16 (H2 <= ln 2, a few roundings, a
    // divisor >= 1); kRoundingMargin > 2 eps.  The computed p never
    // decreases along s (the weights are non-negative and rounded
    // addition is monotone), and f rises up to p* and falls after it
    // (solve_peak_floor).  Three shortcuts leave the scan's result and
    // draw unchanged:
    //
    // Start at the peak.  Additions alone (no logarithms) find the first
    // candidate `top` whose p reaches crash_score.peak_floor() <= p*,
    // or hi.  For j <= top, p(j - 1) < p* and every earlier p is no
    // larger, so f rises along them: no score before j falls more than
    // 2 eps below an earlier one (the scan does not stop before j), and
    // none exceeds score(j - 1) + 2 eps.  The best the scan holds before
    // j is one of those scores, so if score(j) exceeds score(j - 1) by
    // more than kTieTolerance + kRoundingMargin, it exceeds that best by
    // more than kTieTolerance, and the scan's state after j is exactly
    // ({j}, score(j)), whatever came before.  So walk back from top to
    // the first such j and resume the scan after it.  Without one among
    // the kept prefix sums (scores flat around the peak, which takes
    // extreme reboot costs or huge brackets), scan from lo.
    //
    // Early exit.  A computed score below
    // best - kTieTolerance - kRoundingMargin has an exact f below the
    // exact f of that earlier best, so its p lies above p* and no later
    // exact f exceeds its own.  Every later computed score then stays
    // below best - kTieTolerance: none can join the plateau or replace
    // the best, and the scan stops.
    //
    // The plateau is not stored.  After the last new best `first`, no
    // score exceeds best + kTieTolerance (it would have started a new
    // plateau), so the plateau is exactly the scanned s >= first scoring
    // at least best - kTieTolerance, in order.  The draw picks its k-th
    // member; k = 0 is `first` itself (the generic singleton plateau),
    // any other k rescans from first, repeating the same additions.
    std::array<double, kWalkBack> prefix{};  // prefix[s % kWalkBack] = p(s)
    std::uint64_t top = lo;
    for (double p = 0.0;; ++top) {
        p += posterior.weight(top);
        prefix[top % kWalkBack] = p;
        if (p >= crash_score.peak_floor() || top == hi) break;
    }
    double best = -1.0;
    std::uint64_t first = lo;
    double p_first = 0.0;  // p(first)
    std::uint64_t count = 0;
    const std::uint64_t stop = top - lo >= kWalkBack ? top + 1 - kWalkBack : lo;
    double above = score_at(prefix[top % kWalkBack], c);
    for (std::uint64_t j = top; j > stop; --j) {
        const double below = score_at(prefix[(j - 1) % kWalkBack], c);
        if (above > below + kTieTolerance + kRoundingMargin) {
            best = above;
            first = j;
            p_first = prefix[j % kWalkBack];
            count = 1;
            break;
        }
        above = below;
    }
    // Resume after the start found, or scan from lo.
    std::uint64_t s = count == 0 ? lo : first + 1;
    double p = p_first;
    for (; s <= hi; ++s) {
        p += posterior.weight(s);
        const double score = score_at(p, c);
        if (score > best + kTieTolerance) {
            best = score;
            first = s;
            p_first = p;
            count = 1;
        } else if (score >= best - kTieTolerance) {
            ++count;
        } else if (score < best - kTieTolerance - kRoundingMargin) {
            break;
        }
    }
    // Seeded deterministic sampling across the plateau; a singleton
    // plateau (the generic case) still burns one draw so the stream
    // position is independent of score-landscape accidents.
    std::uint64_t pick = rng.uniform_below(count);
    std::uint64_t t = first;
    for (double q = p_first; pick > 0;) {
        q += posterior.weight(++t);
        if (score_at(q, c) >= best - kTieTolerance) --pick;
    }
    return t;
}

}  // namespace pv::plugvolt
