// infer — the adaptive sweep planner (SweepMode::Adaptive's strategy).
//
// Replaces per-row searches with a row-axis plan under a plan-level
// 1-cell accuracy certificate:
//
//   1. ANCHOR rows are certified by plugvolt's row search
//      (row_search.hpp) — the same search Bisection runs on every row,
//      here with the acquisition's reboot surcharge.  Anchor verdicts
//      are therefore bit-identical to what Bisection/Exhaustive report
//      for those rows.
//
//   2. The row axis is subdivided recursively: when two neighbouring
//      anchors agree to within 2 steps on BOTH boundaries, every row
//      between them is INTERPOLATED at zero probe cost — with the
//      midpoint value when the anchors differ by exactly 2, which bounds
//      the error at 1 step for ANY monotone truth between them; anchors
//      that disagree by more spawn a new anchor at the midpoint row.
//      Boundaries move monotonically along the frequency axis (the same
//      physics that makes each column monotone in offset); the
//      differential tests hold the certificate against the exhaustive
//      maps on all six golden profile x resolution cases.
//
// An anchor's prior is the fleet's lot-neighbour boundary where one
// exists, else the interpolation between the nearest certified anchors.
// Priors move probes, never verdicts, which keeps per-unit fleet maps
// bit-identical to cold solo runs.
// Resume: adopted anchored rows contribute their certified values
// without probes, and the subdivision recursion depends only on row
// indices and certified values, so a killed-and-resumed plan reproduces
// the uninterrupted plan row-for-row.
#pragma once

#include "plugvolt/acquisition.hpp"
#include "plugvolt/parallel_characterizer.hpp"

namespace pv::infer {

/// Build the planner ParallelCharacterizerConfig::planner expects.  The
/// returned function is stateless between invocations (all planning
/// state lives per call), so one instance may be shared across the fleet
/// orchestrator's concurrent per-unit sweeps.
[[nodiscard]] plugvolt::AdaptivePlannerFn adaptive_planner(
    plugvolt::AcquisitionConfig config = {});

}  // namespace pv::infer
