// Fleet-scale characterization: one process, a thousand dies.
//
// Characterizes a full simulated silicon lot on the fleet orchestrator
// and measures what fleet scale buys and costs:
//
//   cold_fleet — per-unit cold bisection (warm starts disabled): the
//                probe budget a vendor pays characterizing each die in
//                isolation;
//   warm_fleet — lot-neighbour warm starts on: the production path.
//
// Reported: units/sec, total cell probes, the warm/cold probe ratio
// (the acceptance gate: warm must spend <= 60% of cold's probes), a
// sampled bit-identity check of warm fleet maps against cold solo
// sweeps, and the stability of the population envelope's percentile
// clamps as the fleet grows (does the 1000-unit clamp differ from the
// 100-unit one?).  Emits BENCH_fleet.json.
//
// --quick shrinks the lot for CI smoke runs; the probe-ratio gate is
// enforced in both modes (it is scale-free), the identity check always.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet_orchestrator.hpp"
#include "fleet/population_envelope.hpp"
#include "fleet/silicon_lot.hpp"
#include "plugvolt/parallel_characterizer.hpp"

using namespace pv;

namespace {

/// The pinned fleet protocol: 5 mV steps, 2-step refine window (covers
/// the onset-observability band at this resolution), MAD floor at the
/// step size (one-step deviations are quantization, not escapes).
fleet::FleetConfig fleet_protocol(std::uint64_t units, bool warm) {
    fleet::FleetConfig cfg;
    cfg.units = units;
    cfg.sweep.cell.offset_step = Millivolts{5.0};
    cfg.sweep.mode = plugvolt::SweepMode::Bisection;
    cfg.sweep.refine_window = 2;
    cfg.warm_start = warm;
    cfg.envelope.mad_floor_mv = 5.0;
    return cfg;
}

struct FleetRun {
    double wall_ms = 0.0;
    std::uint64_t cells = 0;
    std::uint64_t warm_rows = 0;
    std::vector<plugvolt::SafeStateMap> maps;  ///< per-unit, id order
};

FleetRun run_fleet(const fleet::SiliconLot& lot, std::uint64_t units, bool warm) {
    fleet::FleetOrchestrator orchestrator(lot, fleet_protocol(units, warm));
    FleetRun run;
    run.maps.reserve(units);
    const bench::Stopwatch watch;
    (void)orchestrator.characterize(
        [&run](std::uint64_t, const plugvolt::SafeStateMap& map) {
            run.maps.push_back(map);
        });
    run.wall_ms = watch.elapsed_ms();
    run.cells = orchestrator.stats().cells_evaluated;
    run.warm_rows = orchestrator.stats().warm_rows;
    return run;
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const std::uint64_t units = quick ? 96 : 1000;
    const fleet::SiliconLot lot(sim::cometlake_i7_10510u(), {});
    std::printf("=== Fleet characterization (%s, %llu jittered units, 5 mV, "
                "bisection + lot-neighbour warm starts) ===\n\n",
                lot.base().codename.c_str(), static_cast<unsigned long long>(units));

    const FleetRun cold = run_fleet(lot, units, /*warm=*/false);
    const FleetRun warm = run_fleet(lot, units, /*warm=*/true);
    const double ratio =
        static_cast<double>(warm.cells) / static_cast<double>(cold.cells);

    // Bit-identity spot check: fleet maps vs cold SOLO sweeps (their own
    // engine, no fleet, no hints) for a sample of dies across the lot.
    fleet::FleetOrchestrator reference(lot, fleet_protocol(units, false));
    bool identical = warm.maps.size() == units && cold.maps.size() == units;
    for (std::uint64_t u = 0; identical && u < units; u += units / 8) {
        const std::uint64_t solo = state_hash(reference.characterize_unit(u));
        identical = state_hash(warm.maps[u]) == solo && state_hash(cold.maps[u]) == solo;
        if (!identical)
            std::printf("UNIT %llu: fleet map diverged from the cold solo sweep\n",
                        static_cast<unsigned long long>(u));
    }

    Table table({"variant", "wall (ms)", "units/sec", "cells", "warm rows", "maps"});
    const auto add = [&](const char* name, const FleetRun& run, const char* note) {
        table.add_row({name, Table::num(run.wall_ms, 1),
                       Table::num(static_cast<double>(units) / (run.wall_ms / 1e3), 0),
                       std::to_string(run.cells), std::to_string(run.warm_rows), note});
    };
    add("cold (per-unit bisection)", cold, "reference");
    add("warm (lot neighbours)", warm, identical ? "== cold solo" : "MISMATCH");
    std::printf("%s\n", table.render().c_str());
    std::printf("warm/cold probe ratio: %.3f (gate: <= 0.60)\n\n", ratio);

    // Envelope stability vs fleet size: per-unit maps are fleet-size
    // independent (unit seed + jitter derive from ids alone), so the
    // growth curve folds prefixes of one run's maps.
    {
        Table stability({"fleet size", "clamp @ y=1.0", "clamp @ y=0.999",
                         "outlier dies"});
        fleet::PopulationEnvelope env(fleet_protocol(units, true).envelope);
        std::uint64_t next_checkpoint = units >= 1000 ? 100 : units / 4;
        for (std::uint64_t u = 0; u < units; ++u) {
            env.add(u, warm.maps[u]);
            if (u + 1 == next_checkpoint || u + 1 == units) {
                stability.add_row({std::to_string(u + 1),
                                   Table::num(env.clamp_at_yield(1.0).value(), 1) + " mV",
                                   Table::num(env.clamp_at_yield(0.999).value(), 1) + " mV",
                                   std::to_string(env.outlier_units().size())});
                next_checkpoint *= 3;
            }
        }
        std::printf("%s\n", stability.render().c_str());
    }

    std::printf("Reading: each die's row search takes the running mean boundary of\n"
                "its finished lot neighbours as its prior instead of a flat one, so\n"
                "the fleet amortizes the search cost the paper pays per machine -- \n"
                "without changing a single cell (hints move probes, never results;\n"
                "the sampled maps above and the fleet differential suite prove it).\n"
                "The envelope table shows how fast the population clamp converges:\n"
                "the protect-all clamp is set by the shallowest die and can only\n"
                "tighten as the fleet grows.\n\n");

    const std::string json = bench::write_bench_json(
        "fleet", {{"cold_fleet", cold.wall_ms, cold.cells, 1.0},
                  {"warm_fleet", warm.wall_ms, warm.cells, cold.wall_ms / warm.wall_ms}});
    std::printf("wrote %s\n", json.c_str());

    if (!identical) return 1;
    if (ratio > 0.60) {
        std::printf("FAILED: warm/cold probe ratio %.3f exceeds the 0.60 budget\n", ratio);
        return 1;
    }
    return 0;
}
