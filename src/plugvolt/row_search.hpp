// PlugVolt — the one fast row search.
//
// Certifies one frequency row's crash and fault-onset boundaries by
// direct probes.  SweepMode::Bisection runs it on every row with a zero
// reboot cost; the adaptive planner (src/infer) runs it on the rows it
// anchors, with the acquisition's reboot surcharge.
//
//   crash — an expected-information-gain-per-cost loop over a
//           BoundaryPosterior (acquisition.hpp) that stops only when the
//           hard bracket collapses to one step.  crashed(s) is a
//           deterministic monotone predicate, so the certified step is
//           the same whatever order the probes came in.  At zero reboot
//           cost the score's maximiser is the posterior median, so the
//           search probes that directly; under a flat prior it opens
//           with the deepest cell and then bisects.
//   onset — a gate probe at the deepest surviving cell decides
//           fault-free columns (no faults there: none shallower either).
//           From a faulting gate the onset posterior first takes the
//           crash search's surviving probes as evidence, then the search
//           probes its median until the bracket collapses: a faulting
//           cell becomes the new start, a clean one raises the lower
//           bound.  The refine-window walk then certifies the shallowest
//           faulting cell: from the start it scans up to refine_window
//           shallower cells, and each hit restarts the scan below it.
//           Inside the observability band no two faulting cells are more
//           than a window apart, so the walk reaches the same bottom from
//           ANY faulting start (DESIGN §5h) — the lower bound only steers
//           the descent, never the walk.
//
// A prior (a fleet's lot-neighbour boundaries, or the planner's
// interpolation between anchors) recentres the posteriors: it moves
// probes, never verdicts.  With a flat prior the onset descent is
// bisection; with a recentred one it starts next to the prior's step.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "plugvolt/acquisition.hpp"
#include "plugvolt/boundary_posterior.hpp"
#include "plugvolt/parallel_characterizer.hpp"

namespace pv::plugvolt {

class RowSearch {
public:
    /// Cell probe of the row being searched: 1-based offset step in
    /// [1, steps] -> outcome.  Repeated steps must be answered from a
    /// memo (the searches revisit cells).
    using Probe = std::function<CellResult(std::uint64_t step)>;
    /// Sees the bracket [lo, hi] after every probe decision (tracing).
    using Observer = std::function<void(std::uint64_t lo, std::uint64_t hi)>;

    /// A search over columns of `steps` offset steps.  `acquisition`
    /// must be valid (reboot_cost >= 0, prior_decay in (0, 1),
    /// prior_floor > 0); the prior-decay table is built once here.
    RowSearch(std::uint64_t steps, std::uint64_t refine_window, AcquisitionConfig acquisition);

    /// Certify row `row` of a sweep seeded `seed`; `prior` steps of 0
    /// leave that boundary's prior flat.  Acquisition ties draw from a
    /// stream forked per (seed, row), so a row's probes do not depend on
    /// how many probes other rows needed.  Returns an anchored row.
    /// Reuses the search's posterior and survivor buffers, so one search
    /// serves one thread at a time.
    [[nodiscard]] PlannedRow solve(std::uint64_t seed, std::uint64_t row,
                                   const RowWarmStart& prior, const Probe& probe,
                                   const Observer& observe = {});

private:
    std::uint64_t steps_;
    std::uint64_t refine_window_;
    AcquisitionConfig acquisition_;
    CrashScore crash_score_;
    /// decay^k for every distance a prior can reach.
    std::vector<double> decay_powers_;
    /// Per-row state, reset by every solve(): the two boundaries'
    /// posteriors and the crash search's surviving (step, faults) cells.
    BoundaryPosterior crash_;
    BoundaryPosterior onset_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> survivors_;
};

}  // namespace pv::plugvolt
