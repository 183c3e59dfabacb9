#include "plugvolt/row_search.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace pv::plugvolt {
namespace {

/// Salt of the search's own RNG stream (acquisition tie-breaks).
constexpr std::uint64_t kRowSearchSeedTag = 0xADA'B0DE;

}  // namespace

RowSearch::RowSearch(std::uint64_t steps, std::uint64_t refine_window,
                     AcquisitionConfig acquisition)
    : steps_(steps),
      refine_window_(refine_window),
      acquisition_(acquisition),
      crash_score_(acquisition.reboot_cost),
      decay_powers_(BoundaryPosterior::decay_powers(acquisition.prior_decay, steps + 1)),
      crash_(steps + 1),
      onset_(steps + 1) {}

PlannedRow RowSearch::solve(std::uint64_t seed, std::uint64_t row, const RowWarmStart& prior,
                            const Probe& probe, const Observer& observe) {
    const auto note = [&observe](std::uint64_t lo, std::uint64_t hi) {
        if (observe) observe(lo, hi);
    };
    Rng rng(mix_seed(mix_seed(seed, kRowSearchSeedTag), row));

    // --- crash boundary: acquisition loop to a 0-cell bracket ----------
    // Every surviving probe is onset evidence too: its fault count says
    // which side of the onset it sits on.
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& survivors = survivors_;
    survivors.clear();
    BoundaryPosterior& crash = crash_;
    const auto crash_probe = [&](std::uint64_t s) {
        const CellResult cell = probe(s);
        if (cell.crashed) {
            crash.restrict_leq(s);
        } else {
            crash.restrict_geq(s + 1);
            survivors.emplace_back(s, cell.faults);
        }
        note(crash.hard_lo(), crash.hard_hi());
    };
    // With free reboots the acquisition's score is H2(P(b <= s)) alone,
    // which the median maximises: read it off the posterior (taking the
    // shallower of two tied cells) instead of scoring every candidate.
    // Without a prior the deepest cell then goes first: it settles a
    // column that never crashes in one probe, where a median search needs
    // log2(steps) probes to reach the no-crash verdict.
    const bool free_reboots = acquisition_.reboot_cost == 0.0;
    if (prior.crash_step >= 1) {
        crash.reset(steps_ + 1, std::min(prior.crash_step, steps_ + 1), decay_powers_,
                    acquisition_.prior_floor);
    } else {
        crash.reset(steps_ + 1);
        if (free_reboots && steps_ >= 1) crash_probe(steps_);
    }
    while (!crash.certified())
        crash_probe(free_reboots ? crash.median()
                                 : select_crash_probe(crash, crash_score_, steps_, rng));
    const std::uint64_t crash_step = crash.hard_lo();

    // --- fault onset: gate, median descent, certification walk --------
    // The gate cell is usually free: the crash bracket probed it.
    const std::uint64_t limit = crash_step <= steps_ ? crash_step - 1 : steps_;
    if (limit == 0 || probe(limit).faults == 0)
        return PlannedRow{crash_step, /*onset_step=*/0, /*anchored=*/true};
    BoundaryPosterior& onset = onset_;  // hard_hi is the shallowest faulting cell
    if (prior.onset_step >= 1)
        onset.reset(limit, std::min(prior.onset_step, limit), decay_powers_,
                    acquisition_.prior_floor);
    else
        onset.reset(limit);
    for (const auto& [s, faults] : survivors)
        if (faults > 0) onset.restrict_leq(s);
    for (const auto& [s, faults] : survivors)
        if (faults == 0 && s < onset.hard_hi()) onset.restrict_geq(s + 1);
    while (!onset.certified()) {
        const std::uint64_t cand = onset.median();
        if (probe(cand).faults > 0) {
            onset.restrict_leq(cand);
        } else {
            onset.restrict_geq(cand + 1);
        }
        note(onset.hard_lo(), onset.hard_hi());
    }
    // The walk reads nothing but [1, s]: a clean cell only steered the
    // descent, and cells below the bracket are scanned like any other.
    std::uint64_t s = onset.hard_hi();
    while (s > 1) {
        const std::uint64_t stop = s > refine_window_ ? s - refine_window_ : 1;
        std::uint64_t found = 0;
        for (std::uint64_t t = s - 1; t >= stop; --t) {
            if (probe(t).faults > 0) {
                found = t;
                break;
            }
            if (t == stop) break;
        }
        note(1, found != 0 ? found : s);
        if (found == 0) break;
        s = found;
    }
    return PlannedRow{crash_step, s, /*anchored=*/true};
}

}  // namespace pv::plugvolt
