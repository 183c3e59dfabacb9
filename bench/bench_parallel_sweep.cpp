// Parallel sharded characterization: serial vs sharded vs bisection.
//
// The Fig. 2-4 safe-state maps are the dominant wall-clock cost of every
// experiment in this repo.  This bench measures the three execution
// strategies of the sweep engine at the paper's full resolution (1 mV x
// 0.1 GHz, 10^6 imul per cell) and proves the maps agree cell-for-cell:
//
//   serial/legacy    — the original single-threaded sweep loop, kept
//                      here as the pre-engine reference
//   engine x1        — sharded engine, 1 worker, exhaustive (reference)
//   engine x8        — 8 workers, exhaustive scan per row
//   engine x8+bisect — 8 workers, O(log steps) boundary bisection
//
// Emits BENCH_parallel_sweep.json (name, wall-clock, cells, speedup).
#include <cstdio>

#include "bench_common.hpp"
#include "plugvolt/limit_table.hpp"
#include "plugvolt/parallel_characterizer.hpp"

using namespace pv;

namespace {

struct Run {
    plugvolt::SafeStateMap map;
    double wall_ms;
    std::uint64_t cells;
};

/// The pre-engine serial sweep: one machine, every cell of a row probed
/// in order, a reboot after each crashing row.  Seeded once per sweep, so
/// its map is not comparable cell-for-cell with the engine's.
Run run_legacy(const sim::CpuProfile& profile) {
    sim::Machine machine(profile, 0xDAC2024);
    os::Kernel kernel(machine);
    plugvolt::Characterizer chr(kernel, {});
    const bench::Stopwatch watch;
    plugvolt::SafeStateMap map(profile.name, chr.config().sweep_floor);
    std::uint64_t cells = 0;
    for (const Megahertz f : profile.frequency_table()) {
        plugvolt::FreqCharacterization row{
            .freq = f,
            .onset = Millivolts{0.0},
            .crash = chr.no_crash_sentinel(),
            .fault_free = true,
        };
        for (std::uint64_t s = 1; s <= chr.sweep_steps(); ++s) {
            const Millivolts offset = chr.offset_at_step(s);
            const plugvolt::CellResult cell = chr.test_cell(f, offset);
            ++cells;
            if (cell.crashed) {
                row.crash = offset;
                if (row.fault_free) row.onset = offset;  // band narrower than the step
                row.fault_free = false;
                machine.reboot();
                break;
            }
            if (cell.faults > 0 && row.fault_free) {
                row.onset = offset;
                row.fault_free = false;
            }
        }
        map.add(row);
    }
    return Run{std::move(map), watch.elapsed_ms(), cells};
}

Run run_engine(const sim::CpuProfile& profile, unsigned workers,
               plugvolt::SweepMode mode) {
    plugvolt::ParallelCharacterizerConfig config;
    config.workers = workers;
    config.mode = mode;
    plugvolt::ParallelCharacterizer engine(profile, config);
    const bench::Stopwatch watch;
    plugvolt::SafeStateMap map = engine.characterize();
    return Run{std::move(map), watch.elapsed_ms(), engine.stats().cells_evaluated};
}

}  // namespace

int main(int argc, char** argv) {
    const unsigned workers =
        argc > 1 ? bench::parse_workers(argv[1], 1, "bench_parallel_sweep [workers]") : 8u;
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    std::printf("=== Parallel sharded characterization sweep (%s, %zu frequencies, "
                "1 mV x 10^6 imul cells) ===\n\n",
                profile.codename.c_str(), profile.frequency_table().size());

    // Legacy serial sweep (the pre-engine baseline everything is judged
    // against).  Cell count: offsets visited until each column's crash.
    const Run legacy = run_legacy(profile);
    const double legacy_ms = legacy.wall_ms;
    const std::uint64_t legacy_cells = legacy.cells;

    const Run serial = run_engine(profile, 1, plugvolt::SweepMode::Exhaustive);
    const Run sharded = run_engine(profile, workers, plugvolt::SweepMode::Exhaustive);
    const Run bisect = run_engine(profile, workers, plugvolt::SweepMode::Bisection);

    // Bit-exact map comparison through the checking layer's fingerprint:
    // one 64-bit digest per map instead of rendering megabytes of CSV,
    // and the same hash the determinism tests pin down.
    const std::uint64_t reference_hash = plugvolt::state_hash(serial.map);
    const bool sharded_equal = plugvolt::state_hash(sharded.map) == reference_hash;
    const bool bisect_equal = plugvolt::state_hash(bisect.map) == reference_hash;

    Table table({"variant", "wall (ms)", "cells", "speedup vs legacy", "map"});
    auto add = [&](const char* name, double ms, std::uint64_t cells, const char* map_note) {
        table.add_row({name, Table::num(ms, 1), std::to_string(cells),
                       Table::num(legacy_ms / ms, 2) + "x", map_note});
    };
    add("serial/legacy", legacy_ms, legacy_cells, "baseline");
    add("engine x1 exhaustive", serial.wall_ms, serial.cells, "reference");
    add((std::string("engine x") + std::to_string(workers) + " exhaustive").c_str(),
        sharded.wall_ms, sharded.cells, sharded_equal ? "== reference" : "MISMATCH");
    add((std::string("engine x") + std::to_string(workers) + " bisection").c_str(),
        bisect.wall_ms, bisect.cells, bisect_equal ? "== reference" : "MISMATCH");
    std::printf("%s\n", table.render().c_str());

    std::printf("maximal safe state: legacy-free check -> engine %.0f mV\n",
                serial.map.maximal_safe_offset(plugvolt::kDefaultGuardBand).value());
    std::printf("map equality: sharded %s, bisection %s\n\n",
                sharded_equal ? "OK" : "FAILED", bisect_equal ? "OK" : "FAILED");

    std::printf("Reading: rows shard across workers (gain scales with physical cores;\n"
                "a 1-core host shows none) and bisection cuts cells per row from\n"
                "O(steps) to O(log steps + refine window) - the dominant win at the\n"
                "paper's 1 mV resolution.  The engine's exhaustive mode pays a per-cell\n"
                "machine reset for order-independence, which is what makes the sharded\n"
                "and bisection maps provably identical to the serial reference.\n\n");

    const std::string json = bench::write_bench_json(
        "parallel_sweep",
        {{"serial_legacy", legacy_ms, legacy_cells, 1.0},
         {"engine_x1_exhaustive", serial.wall_ms, serial.cells, legacy_ms / serial.wall_ms},
         {"engine_x" + std::to_string(workers) + "_exhaustive", sharded.wall_ms,
          sharded.cells, legacy_ms / sharded.wall_ms},
         {"engine_x" + std::to_string(workers) + "_bisection", bisect.wall_ms, bisect.cells,
          legacy_ms / bisect.wall_ms}});
    std::printf("wrote %s\n", json.c_str());

    if (!sharded_equal || !bisect_equal) return 1;
    return 0;
}
