// Adaptive boundary inference: posterior-driven probing vs sweeps.
//
// Runs the src/infer adaptive planner against the exhaustive reference
// on three CPU profiles at the pinned adaptive protocol (10 mV steps,
// refine window 2, two workers) and enforces the subsystem's contract in
// its exit code:
//
//   1. probe budget   — each profile's golden boundary map must be
//                       reached in <= 100 cell probes (the exhaustive
//                       sweep pays 649-1221 at this resolution);
//   2. 1-cell accuracy — every row's crash and onset boundary within one
//                       effective offset step of the exhaustive map, and
//                       every anchored (directly probed) row EXACT;
//   3. cell identity  — every probe the planner executed, replayed on a
//                       fresh-boot machine with the cell's derived seed,
//                       reproduces the logged outcome bit-for-bit (the
//                       per-cell reseeding scheme makes any adaptively
//                       probed cell identical to its exhaustive twin);
//   4. fleet warm start — a lot characterized by warm-started adaptive
//                       sweeps must spend <= 60% of the cold bisection
//                       fleet's probes (the fleet bench's existing
//                       warm/cold budget), and never more than the cold
//                       adaptive fleet;
//   5. mode parity    — cold solo Bisection and Adaptive sweeps of every
//                       profile at 1, 5 and 10 mV, both with the engine's
//                       default refine window: Adaptive must probe no
//                       more cells than Bisection at every point (cells
//                       and crash probes are printed for both).
//
// Emits BENCH_adaptive.json.  --quick shrinks the fleet lot for CI
// smoke runs; every gate is enforced in both modes.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet_orchestrator.hpp"
#include "fleet/silicon_lot.hpp"
#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "util/rng.hpp"

using namespace pv;
using plugvolt::ParallelCharacterizer;
using plugvolt::ParallelCharacterizerConfig;
using plugvolt::SweepMode;

namespace {

constexpr double kStepMv = 10.0;
constexpr std::uint64_t kProbeBudget = 100;
constexpr double kFleetBudget = 0.60;

/// The pinned adaptive protocol: 10 mV resolution, refine window 2 (the
/// onset observability band at this step size), two workers.
ParallelCharacterizerConfig protocol(SweepMode mode) {
    ParallelCharacterizerConfig cfg;
    cfg.cell.offset_step = Millivolts{kStepMv};
    cfg.workers = 2;
    cfg.mode = mode;
    cfg.refine_window = 2;
    if (mode == SweepMode::Adaptive) cfg.planner = infer::adaptive_planner();
    return cfg;
}

/// Boundaries in effective-step space, where "fault free" and "never
/// crashed" are the point steps+1 instead of sentinel millivolts — the
/// coordinate in which "within one cell" is meaningful across the
/// fault-free discontinuity.
struct EffRow {
    std::uint64_t crash = 0;
    std::uint64_t onset = 0;
};

EffRow effective(const plugvolt::FreqCharacterization& row, double sentinel_mv,
                 std::uint64_t steps) {
    EffRow eff;
    eff.crash = row.crash.value() == sentinel_mv
                    ? steps + 1
                    : static_cast<std::uint64_t>(std::llround(-row.crash.value() / kStepMv));
    eff.onset = row.fault_free
                    ? steps + 1
                    : static_cast<std::uint64_t>(std::llround(-row.onset.value() / kStepMv));
    return eff;
}

struct ProfileResult {
    double exhaustive_ms = 0.0;
    double adaptive_ms = 0.0;
    std::uint64_t exhaustive_cells = 0;
    std::uint64_t adaptive_cells = 0;
    std::uint64_t adaptive_crashes = 0;
    std::uint64_t interpolated = 0;
    std::uint64_t max_delta = 0;
    bool anchors_exact = true;
    bool cells_identical = true;
};

ProfileResult run_profile(const sim::CpuProfile& profile) {
    ProfileResult r;

    ParallelCharacterizer exhaustive(profile, protocol(SweepMode::Exhaustive));
    const bench::Stopwatch exh_watch;
    const plugvolt::SafeStateMap exh_map = exhaustive.characterize();
    r.exhaustive_ms = exh_watch.elapsed_ms();
    r.exhaustive_cells = exhaustive.stats().cells_evaluated;

    ParallelCharacterizer adaptive(profile, protocol(SweepMode::Adaptive));
    const bench::Stopwatch ad_watch;
    const plugvolt::SafeStateMap ad_map = adaptive.characterize();
    r.adaptive_ms = ad_watch.elapsed_ms();
    r.adaptive_cells = adaptive.stats().cells_evaluated;
    r.adaptive_crashes = adaptive.stats().crash_probes;
    r.interpolated = adaptive.stats().rows_interpolated;

    // Gate 2: 1-cell accuracy everywhere, exactness on anchored rows.
    const auto& cfg = adaptive.config();
    const double sentinel_mv = (cfg.cell.sweep_floor - cfg.cell.offset_step).value();
    const std::uint64_t steps =
        static_cast<std::uint64_t>(std::floor(-cfg.cell.sweep_floor.value() / kStepMv));
    std::vector<std::uint64_t> row_probes(exh_map.rows().size(), 0);
    for (const plugvolt::ProbeLogEntry& e : adaptive.adaptive_probe_log())
        ++row_probes[e.row];
    for (std::size_t i = 0; i < exh_map.rows().size(); ++i) {
        const EffRow exh = effective(exh_map.rows()[i], sentinel_mv, steps);
        const EffRow ad = effective(ad_map.rows()[i], sentinel_mv, steps);
        const std::uint64_t dc = exh.crash > ad.crash ? exh.crash - ad.crash
                                                      : ad.crash - exh.crash;
        const std::uint64_t don = exh.onset > ad.onset ? exh.onset - ad.onset
                                                       : ad.onset - exh.onset;
        r.max_delta = std::max({r.max_delta, dc, don});
        if (row_probes[i] != 0 && (dc != 0 || don != 0)) r.anchors_exact = false;
    }

    // Gate 3: replay every logged probe on a fresh-boot machine seeded
    // with the cell's derived seed — the exhaustive sweep's exact cell
    // procedure — and demand the logged outcome bit-for-bit.
    for (const plugvolt::ProbeLogEntry& e : adaptive.adaptive_probe_log()) {
        os::WorkerContext ctx = os::make_worker_context(profile, /*seed=*/0);
        plugvolt::Characterizer chr(*ctx.kernel, cfg.cell);
        const std::uint64_t cell_seed = mix_seed(mix_seed(cfg.seed, e.row), e.step);
        ctx.machine->reset(cell_seed);
        const Megahertz f = profile.frequency_table()[e.row];
        chr.pin_frequency(f);
        const plugvolt::CellResult replay =
            chr.test_cell_pinned(f, chr.offset_at_step(e.step));
        if (replay.faults != e.faults || replay.crashed != e.crashed) {
            r.cells_identical = false;
            std::printf("CELL MISMATCH row=%llu step=%llu: logged %llu/%d, "
                        "fresh boot %llu/%d\n",
                        static_cast<unsigned long long>(e.row),
                        static_cast<unsigned long long>(e.step),
                        static_cast<unsigned long long>(e.faults), e.crashed ? 1 : 0,
                        static_cast<unsigned long long>(replay.faults),
                        replay.crashed ? 1 : 0);
        }
    }
    return r;
}

/// Cold solo probe cost of one fast mode at one resolution.
struct ModeCost {
    std::uint64_t cells = 0;
    std::uint64_t crashes = 0;
};

ModeCost cold_cost(const sim::CpuProfile& profile, SweepMode mode, double step_mv) {
    ParallelCharacterizerConfig cfg;  // the engine's default refine window
    cfg.cell.offset_step = Millivolts{step_mv};
    cfg.workers = 1;
    cfg.mode = mode;
    if (mode == SweepMode::Adaptive) cfg.planner = infer::adaptive_planner();
    ParallelCharacterizer engine(profile, cfg);
    (void)engine.characterize();
    return {engine.stats().cells_evaluated, engine.stats().crash_probes};
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    std::printf("=== Adaptive boundary inference (10 mV, refine window 2, "
                "probe budget %llu/profile) ===\n\n",
                static_cast<unsigned long long>(kProbeBudget));

    struct Case {
        const char* name;
        sim::CpuProfile profile;
    };
    const std::vector<Case> cases = {{"skylake_i5_6500", sim::skylake_i5_6500()},
                                     {"kabylake_r_i5_8250u", sim::kabylake_r_i5_8250u()},
                                     {"cometlake_i7_10510u", sim::cometlake_i7_10510u()}};

    bool ok = true;
    std::vector<bench::BenchRecord> records;
    Table table({"profile", "exhaustive", "adaptive", "crash probes", "interp rows",
                 "max delta", "cells"});
    for (const Case& c : cases) {
        const ProfileResult r = run_profile(c.profile);
        const bool budget_ok = r.adaptive_cells <= kProbeBudget;
        const bool accuracy_ok = r.max_delta <= 1 && r.anchors_exact;
        ok = ok && budget_ok && accuracy_ok && r.cells_identical;
        table.add_row({c.name, std::to_string(r.exhaustive_cells),
                       std::to_string(r.adaptive_cells) +
                           (budget_ok ? "" : " OVER BUDGET"),
                       std::to_string(r.adaptive_crashes),
                       std::to_string(r.interpolated),
                       std::to_string(r.max_delta) +
                           (accuracy_ok ? "" : " INACCURATE"),
                       r.cells_identical ? "== fresh boot" : "MISMATCH"});
        records.push_back({std::string("exhaustive_") + c.name, r.exhaustive_ms,
                           r.exhaustive_cells, 1.0});
        records.push_back({std::string("adaptive_") + c.name, r.adaptive_ms,
                           r.adaptive_cells,
                           static_cast<double>(r.exhaustive_cells) /
                               static_cast<double>(r.adaptive_cells)});
    }
    std::printf("%s\n", table.render().c_str());

    // Gate 5: the two fast modes side by side, same window, cold and solo.
    const std::uint64_t window = ParallelCharacterizerConfig{}.refine_window;
    std::printf("Cold solo probes, Bisection vs Adaptive (refine window %llu; "
                "cells / crash probes):\n",
                static_cast<unsigned long long>(window));
    Table parity({"profile", "step (mV)", "bisection", "adaptive", "adaptive <= bisection"});
    for (const Case& c : cases) {
        for (const double step_mv : {1.0, 5.0, 10.0}) {
            const ModeCost bis = cold_cost(c.profile, SweepMode::Bisection, step_mv);
            const ModeCost ad = cold_cost(c.profile, SweepMode::Adaptive, step_mv);
            const bool parity_ok = ad.cells <= bis.cells;
            ok = ok && parity_ok;
            const auto cost = [](const ModeCost& m) {
                return std::to_string(m.cells) + " / " + std::to_string(m.crashes);
            };
            parity.add_row({c.name, std::to_string(static_cast<int>(step_mv)), cost(bis),
                            cost(ad), parity_ok ? "yes" : "NO"});
        }
    }
    std::printf("%s\n", parity.render().c_str());

    // Gate 4: the warm-started adaptive fleet against the cold bisection
    // fleet (the fleet bench's reference) and the cold adaptive fleet.
    const std::uint64_t units = quick ? 16 : 64;
    const fleet::SiliconLot lot(sim::cometlake_i7_10510u(), {});
    const auto fleet_cfg = [&](SweepMode mode, bool warm) {
        fleet::FleetConfig cfg;
        cfg.units = units;
        cfg.sweep = protocol(mode);
        cfg.sweep.workers = 0;  // the orchestrator owns execution shape
        cfg.sweep.planner = {};
        if (mode == SweepMode::Adaptive) cfg.sweep.planner = infer::adaptive_planner();
        cfg.warm_start = warm;
        return cfg;
    };
    const auto fleet_cells = [&](SweepMode mode, bool warm, double* wall_ms) {
        fleet::FleetOrchestrator orchestrator(lot, fleet_cfg(mode, warm));
        const bench::Stopwatch watch;
        (void)orchestrator.characterize();
        *wall_ms = watch.elapsed_ms();
        return orchestrator.stats().cells_evaluated;
    };
    double bis_ms = 0.0, warm_ms = 0.0, cold_ms = 0.0;
    const std::uint64_t cold_bis = fleet_cells(SweepMode::Bisection, false, &bis_ms);
    const std::uint64_t warm_ad = fleet_cells(SweepMode::Adaptive, true, &warm_ms);
    const std::uint64_t cold_ad = fleet_cells(SweepMode::Adaptive, false, &cold_ms);
    const double warm_ratio =
        static_cast<double>(warm_ad) / static_cast<double>(cold_bis);
    std::printf("fleet (%llu jittered units): cold bisection %llu cells, warm "
                "adaptive %llu, cold adaptive %llu\n",
                static_cast<unsigned long long>(units),
                static_cast<unsigned long long>(cold_bis),
                static_cast<unsigned long long>(warm_ad),
                static_cast<unsigned long long>(cold_ad));
    std::printf("warm-adaptive / cold-bisection probe ratio: %.3f (gate: <= %.2f); "
                "warm/cold adaptive: %.3f (info)\n\n",
                warm_ratio, kFleetBudget,
                static_cast<double>(warm_ad) / static_cast<double>(cold_ad));
    records.push_back({"fleet_cold_bisection", bis_ms, cold_bis, 1.0});
    records.push_back({"fleet_warm_adaptive", warm_ms, warm_ad, bis_ms / warm_ms});
    records.push_back({"fleet_cold_adaptive", cold_ms, cold_ad, bis_ms / cold_ms});

    std::printf("Reading: the planner keeps a per-row posterior over the crash and\n"
                "onset boundary steps, picks the probe with the best information\n"
                "gain per unit cost (crash-risky probes pay a reboot surcharge),\n"
                "stops when the posterior bracket collapses to one cell — the same\n"
                "invariant the bisection certifies — and interpolates rows whose\n"
                "neighbouring anchors pin them to within one cell.  Every probe it\n"
                "does run goes through the per-cell reseeding path, so probed cells\n"
                "are bit-identical to the exhaustive sweep (the replay above).\n\n");

    const std::string json = bench::write_bench_json("adaptive", records);
    std::printf("wrote %s\n", json.c_str());

    if (warm_ratio > kFleetBudget || warm_ad > cold_ad) {
        std::printf("FAILED: fleet warm-start budget violated\n");
        ok = false;
    }
    if (!ok) {
        std::printf("FAILED: adaptive inference gate violated\n");
        return 1;
    }
    return 0;
}
