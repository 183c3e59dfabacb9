// Ablation: characterization cost vs map fidelity.
//
// The paper sweeps at 1 mV x 0.1 GHz with 10^6 imul per cell.  This
// bench quantifies what coarser sweeps buy and lose: cost of the sweep
// (cells probed, plus reboots burned), onset error against the physics
// ground truth, and the effect on the maximal safe state.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace pv;

int main() {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const sim::FaultModel model(sim::TimingModel{profile.timing}, profile.vf_curve());
    std::printf("=== Ablation: characterization resolution vs fidelity (%s) ===\n\n",
                profile.codename.c_str());

    Table table({"offset step (mV)", "ops/cell", "cells probed", "reboots",
                 "mean onset err (mV)", "max err (mV)", "maximal safe (mV)"});

    struct Config {
        double step;
        std::uint64_t ops;
    };
    for (const Config cfg : {Config{1.0, 1'000'000}, Config{2.0, 1'000'000},
                             Config{5.0, 1'000'000}, Config{10.0, 1'000'000},
                             Config{25.0, 1'000'000}, Config{1.0, 100'000},
                             Config{1.0, 10'000}}) {
        plugvolt::CharacterizerConfig conf;
        conf.offset_step = Millivolts{cfg.step};
        conf.ops_per_cell = cfg.ops;
        plugvolt::ParallelCharacterizer engine(profile, bench::exhaustive_sweep(conf, 777));
        const plugvolt::SafeStateMap map = engine.characterize();
        const plugvolt::SweepStats& cost = engine.stats();

        OnlineStats err;
        for (const auto& row : map.rows()) {
            if (row.fault_free) continue;
            // Ground truth at the configured sensitivity.
            const Millivolts truth =
                model.onset_offset(row.freq, sim::InstrClass::Imul, cfg.ops);
            err.add(std::abs(row.onset.value() - truth.value()));
        }
        table.add_row({Table::num(cfg.step, 0), std::to_string(cfg.ops),
                       std::to_string(cost.cells_evaluated), std::to_string(cost.crash_probes),
                       err.count() ? Table::num(err.mean(), 2) : "-",
                       err.count() ? Table::num(err.max(), 2) : "-",
                       Table::num(map.maximal_safe_offset().value(), 0)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Reading: onset error is bounded by the offset step (plus sampling\n"
                "noise); fewer ops per cell shifts the *measured* onset deeper because\n"
                "faint fault rates go unobserved - which silently eats into the real\n"
                "guard margin.  The paper's 1 mV / 10^6-op choice keeps the map within\n"
                "~1 mV of the physics; every coarser step cuts the cells probed\n"
                "roughly in proportion and pays for it in onset error.\n");
    return 0;
}
