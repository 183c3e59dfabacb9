// fleet_characterize: one silicon lot per paper profile, characterized
// at the paper's 1 mV resolution through the fleet's Adaptive path (the
// src/infer planner, warm-started from lot neighbours).  Fleet and sweep
// pools are both one thread wide and no journal is written, so the
// host time is the planner, the per-cell protocol and the simulator.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet_orchestrator.hpp"
#include "fleet/population_envelope.hpp"
#include "fleet/silicon_lot.hpp"
#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "sim/cpu_profile.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pvbench {
namespace {

using pv::plugvolt::AdaptivePlannerFn;
using pv::plugvolt::SweepMode;

constexpr std::uint64_t kUnitsPerLot = 6;
/// Nominal rounds (one lot per profile) per second on the reference host.
constexpr double kRoundsPerSecond = 10.0;
constexpr double kStepMv = 1.0;
constexpr int kOverheadPairs = 5;

/// Counters the traced planner wrapper accumulates.
struct PlanTally {
    std::uint64_t rows_interpolated = 0;
};

/// The infer planner, wrapped so the traced phase sees the planner's
/// span and every probe it issues.  Untraced runs use the bare planner.
AdaptivePlannerFn traced_planner(Tracer& tracer, PlanTally& tally, std::uint64_t request) {
    AdaptivePlannerFn inner = pv::infer::adaptive_planner();
    return [&tracer, &tally, inner, request](const pv::plugvolt::AdaptiveContext& ctx,
                                             const pv::plugvolt::CellProbeFn& probe) {
        const Tracer::Scope plan(tracer, "infer.plan", request);
        const pv::plugvolt::CellProbeFn wrapped = [&tracer, &probe](std::size_t row,
                                                                   std::uint64_t step) {
            const Tracer::Scope cell(tracer, "plugvolt.probe");
            return probe(row, step);
        };
        std::vector<pv::plugvolt::PlannedRow> rows = inner(ctx, wrapped);
        for (const auto& r : rows)
            if (!r.anchored) ++tally.rows_interpolated;
        return rows;
    };
}

struct LotSpec {
    std::size_t profile = 0;
    std::uint64_t lot_seed = 0;
    std::uint64_t sweep_seed = 0;
};

LotSpec lot_spec(std::uint64_t seed, std::uint64_t round, std::size_t profile) {
    const std::uint64_t index = round * 3 + profile;
    return {profile, pv::mix_seed(pv::mix_seed(seed, 0x10'7E5), index),
            pv::mix_seed(pv::mix_seed(seed, 0x5EE9), index)};
}

pv::fleet::FleetOrchestrator make_orchestrator(const LotSpec& spec,
                                               AdaptivePlannerFn planner) {
    pv::fleet::LotConfig lot_config;
    lot_config.lot_seed = spec.lot_seed;
    pv::fleet::SiliconLot lot(pv::sim::paper_profiles()[spec.profile], lot_config);
    pv::fleet::FleetConfig cfg;
    cfg.units = kUnitsPerLot;
    cfg.workers = 1;
    cfg.warm_start = true;
    cfg.sweep.cell.offset_step = pv::Millivolts{kStepMv};
    cfg.sweep.workers = 1;
    cfg.sweep.mode = SweepMode::Adaptive;
    cfg.sweep.seed = spec.sweep_seed;
    cfg.sweep.planner = std::move(planner);
    return pv::fleet::FleetOrchestrator(std::move(lot), std::move(cfg));
}

struct LotRun {
    std::uint64_t envelope_hash = 0;
    std::vector<double> unit_gap_ms;  ///< between UnitProgress callbacks
    double finalize_ms = 0.0;         ///< last callback to characterize() return
    std::uint64_t maps = 0;
    std::uint64_t sampled_map_hash = 0;
    pv::fleet::FleetStats stats;
};

LotRun run_lot(pv::fleet::FleetOrchestrator& orchestrator, std::uint64_t sampled_unit,
               Tracer* tracer) {
    LotRun out;
    std::int64_t last = now_ns();
    const pv::fleet::PopulationEnvelope envelope = orchestrator.characterize(
        [&](std::uint64_t unit, const pv::plugvolt::SafeStateMap& map) {
            const std::int64_t t = now_ns();
            out.unit_gap_ms.push_back(ms_between(last, t));
            if (tracer != nullptr) tracer->record({0, 0, 0, "fleet.unit", last, t});
            last = t;
            ++out.maps;
            if (unit == sampled_unit) out.sampled_map_hash = pv::plugvolt::state_hash(map);
        });
    out.finalize_ms = ms_between(last, now_ns());
    out.envelope_hash = pv::fleet::state_hash(envelope);
    out.stats = orchestrator.stats();
    return out;
}

/// Boundary steps in the coordinate where "within one cell" is
/// meaningful across the fault-free / no-crash sentinels.
struct EffRow {
    std::uint64_t crash = 0;
    std::uint64_t onset = 0;
};

EffRow effective(const pv::plugvolt::FreqCharacterization& row, double sentinel_mv,
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

std::uint64_t distance(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

/// Output check for one sampled unit: re-characterize it cold with the
/// Adaptive planner (must equal the warm fleet map bit for bit) and
/// with Exhaustive (every row within one cell, anchored rows exact).
void check_unit(Report& report, const pv::fleet::FleetOrchestrator& orchestrator,
                std::uint64_t unit, std::uint64_t fleet_map_hash) {
    const std::string where = orchestrator.lot().base().codename + " unit " +
                              std::to_string(unit);
    pv::plugvolt::ParallelCharacterizerConfig cfg = orchestrator.unit_sweep_config(unit);
    cfg.workers = 1;
    cfg.planner = pv::infer::adaptive_planner();
    pv::plugvolt::ParallelCharacterizer adaptive(orchestrator.lot().unit_profile(unit), cfg);
    const pv::plugvolt::SafeStateMap cold = adaptive.characterize();
    report.check(pv::plugvolt::state_hash(cold) == fleet_map_hash,
                 where + ": warm fleet map differs from the cold adaptive map");

    cfg.mode = SweepMode::Exhaustive;
    cfg.planner = {};
    pv::plugvolt::ParallelCharacterizer exhaustive(orchestrator.lot().unit_profile(unit), cfg);
    const pv::plugvolt::SafeStateMap reference = exhaustive.characterize();

    const double sentinel_mv = (cfg.cell.sweep_floor - cfg.cell.offset_step).value();
    const auto steps =
        static_cast<std::uint64_t>(std::floor(-cfg.cell.sweep_floor.value() / kStepMv));
    const auto& planned = adaptive.planned_rows();
    report.check(reference.rows().size() == cold.rows().size() &&
                     planned.size() == cold.rows().size(),
                 where + ": row count mismatch");
    if (reference.rows().size() != cold.rows().size() || planned.size() != cold.rows().size())
        return;
    for (std::size_t i = 0; i < cold.rows().size(); ++i) {
        const EffRow exh = effective(reference.rows()[i], sentinel_mv, steps);
        const EffRow ad = effective(cold.rows()[i], sentinel_mv, steps);
        const std::uint64_t worst = std::max(distance(exh.crash, ad.crash),
                                             distance(exh.onset, ad.onset));
        report.check(worst <= 1, where + " row " + std::to_string(i) +
                                     ": adaptive boundary more than one cell off");
        if (planned[i].anchored)
            report.check(worst == 0, where + " row " + std::to_string(i) +
                                         ": anchored row differs from exhaustive");
    }
}

}  // namespace

Report run_fleet_characterize(const Options& opt) {
    Report report;
    const std::size_t n_profiles = pv::sim::paper_profiles().size();

    // Set-up: build the three lots and their orchestrators, and warm the
    // process with one cold 1 mV adaptive map (first-touch allocations,
    // lazily built tables).
    const auto setup_once = [&](int rep) {
        const std::int64_t t0 = now_ns();
        std::vector<pv::fleet::FleetOrchestrator> warm;
        for (std::size_t p = 0; p < n_profiles; ++p)
            warm.push_back(make_orchestrator(lot_spec(setup_seed(opt.seed, rep), 0, p),
                                             pv::infer::adaptive_planner()));
        (void)warm.front().characterize_unit(kUnitsPerLot);
        return seconds_between(t0, now_ns());
    };
    const std::uint64_t planned = rounds_for(opt.seconds, kRoundsPerSecond);
    std::vector<double> setup_s;
    run_due_setups(setup_s, 0, planned, setup_once);

    // Seeded sample of units to re-sweep cold in the checks.
    pv::Rng pick(pv::mix_seed(opt.seed, 0xC4EC));
    std::vector<std::uint64_t> sampled(n_profiles);
    for (auto& u : sampled) u = pick.uniform_below(kUnitsPerLot);

    // ---- untraced measured phase ---------------------------------------
    std::vector<double> gaps_ms;
    std::vector<double> finalize_ms;
    std::vector<LotRun> round0;
    std::vector<double> round_s;
    std::uint64_t maps = 0;
    std::uint64_t rounds = 0;
    while (rounds < planned) {
        run_due_setups(setup_s, rounds, planned, setup_once);
        const std::int64_t round_start = now_ns();
        for (std::size_t p = 0; p < n_profiles; ++p) {
            pv::fleet::FleetOrchestrator orchestrator =
                make_orchestrator(lot_spec(opt.seed, rounds, p), pv::infer::adaptive_planner());
            LotRun lot = run_lot(orchestrator, rounds == 0 ? sampled[p] : kUnitsPerLot, nullptr);
            gaps_ms.insert(gaps_ms.end(), lot.unit_gap_ms.begin(), lot.unit_gap_ms.end());
            finalize_ms.push_back(lot.finalize_ms);
            maps += lot.maps;
            if (rounds == 0) round0.push_back(std::move(lot));
        }
        round_s.push_back(seconds_between(round_start, now_ns()));
        ++rounds;
    }
    run_due_setups(setup_s, planned, planned, setup_once);
    const double phase_s = sum(round_s);
    report.ops(rounds * n_profiles * kUnitsPerLot, rounds * n_profiles * kUnitsPerLot - maps);

    // ---- output checks (outside the timed phase) ------------------------
    for (std::size_t p = 0; p < n_profiles; ++p) {
        const pv::fleet::FleetOrchestrator orchestrator =
            make_orchestrator(lot_spec(opt.seed, 0, p), pv::infer::adaptive_planner());
        check_unit(report, orchestrator, sampled[p], round0[p].sampled_map_hash);
    }

    report.end_to_end("setup_s", median(setup_s), "s", setup_note(setup_s));
    report.end_to_end("wall_s", median(round_s), "s",
                      "median round (one lot per profile) of " + std::to_string(rounds));
    report.end_to_end("peak_rss_mb", peak_rss_mb(), "MiB");
    report.end_to_end("ops_per_s", static_cast<double>(maps) / phase_s, "1/s",
                      std::to_string(maps) + " maps");
    report.layer("fleet.map_ms_p50", median(gaps_ms), "ms",
                 "n=" + std::to_string(gaps_ms.size()));
    report.layer_tail("fleet.unit_ms_p99", tail(gaps_ms, 990), "ms");
    report.layer("fleet.finalize_ms", median(finalize_ms), "ms",
                 "median of " + std::to_string(finalize_ms.size()) + " lots");
    if (!opt.trace) return report;

    // ---- traced phase: round 0 again, every layer call spanned.  It runs
    // kOverheadPairs times, each paired with an untraced twin of it (the
    // base of the tracing overhead; one ~0.1 s round alone is too noisy),
    // the twin first in even pairs and second in odd ones; pass 0's spans
    // and counts are the ones reported -----------------------------------
    Tracer tracer(true), off(false);
    PlanTally tally;
    std::uint64_t cells = 0, crash_probes = 0, warm_rows = 0, traced_maps = 0;
    std::vector<double> twin_ms, traced_ms;
    for (int k = 0; k < kOverheadPairs; ++k) {
        Tracer spare_tracer(true);
        PlanTally spare_tally;
        Tracer& pass_tracer = k == 0 ? tracer : spare_tracer;
        PlanTally& pass_tally = k == 0 ? tally : spare_tally;
        for (const bool traced : {k % 2 != 0, k % 2 == 0}) {
            const std::int64_t t0 = now_ns();
            for (std::size_t p = 0; p < n_profiles; ++p) {
                const std::uint64_t request = p + 1;
                const Tracer::Scope lot_span(traced ? pass_tracer : off, "fleet.lot", request);
                pv::fleet::FleetOrchestrator orchestrator = make_orchestrator(
                    lot_spec(opt.seed, 0, p),
                    traced ? traced_planner(pass_tracer, pass_tally, request)
                           : pv::infer::adaptive_planner());
                const LotRun lot =
                    run_lot(orchestrator, sampled[p], traced ? &pass_tracer : nullptr);
                report.check(lot.envelope_hash == round0[p].envelope_hash,
                             "traced and untraced envelopes match");
                if (k != 0 || !traced) continue;
                cells += lot.stats.cells_evaluated;
                crash_probes += lot.stats.crash_probes;
                warm_rows += lot.stats.warm_rows;
                traced_maps += lot.maps;
            }
            (traced ? traced_ms : twin_ms).push_back(ms_between(t0, now_ns()));
        }
    }
    const std::vector<Span> spans = tracer.spans();
    const double plan_self_ms = static_cast<double>(total_self_ns(spans, "infer.plan")) / 1e6;
    const double per_map = 1.0 / static_cast<double>(traced_maps);

    report.layer("plugvolt.cells_evaluated", static_cast<double>(cells) * per_map, "cells/map");
    report.layer("plugvolt.crash_probes", static_cast<double>(crash_probes) * per_map,
                 "probes/map");
    report.layer("plugvolt.probe_us",
                 static_cast<double>(total_ns(spans, "plugvolt.probe")) / 1e3 /
                     static_cast<double>(cells),
                 "us", "probe span time per evaluated cell");
    report.layer("infer.plan_self_ms", plan_self_ms * per_map, "ms/map");
    report.layer("infer.rows_interpolated", static_cast<double>(tally.rows_interpolated),
                 "count");
    report.layer("infer.plan_share", plan_self_ms / traced_ms.front(), "ratio");
    report.layer("fleet.warm_rows", static_cast<double>(warm_rows), "count");
    report.layer("bench.trace_overhead_pct", overhead_pct(median(traced_ms), median(twin_ms)),
                 "%", "median of " + std::to_string(kOverheadPairs) +
                          " traced passes vs untraced twins");
    report.ops(2 * kOverheadPairs * traced_maps, 0);
    report.check(tracer.write_json(opt.work_dir + "/spans_fleet_characterize.json"),
                 "span dump written");
    return report;
}

}  // namespace pvbench
