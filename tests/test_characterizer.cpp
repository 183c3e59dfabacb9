// Algo. 2 cell-probe tests and whole-sweep properties (the data behind
// Figs. 2-4).
#include "plugvolt/characterizer.hpp"

#include <gtest/gtest.h>

#include "plugvolt/limit_table.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace pv::plugvolt {
namespace {

TEST(Characterizer, RejectsBadConfig) {
    sim::Machine machine(sim::skylake_i5_6500(), 1);
    os::Kernel kernel(machine);
    CharacterizerConfig config;
    config.sweep_floor = Millivolts{10.0};
    EXPECT_THROW(Characterizer(kernel, config), ConfigError);
    config = {};
    config.offset_step = Millivolts{-1.0};
    EXPECT_THROW(Characterizer(kernel, config), ConfigError);
    config = {};
    config.dvfs_core = config.execute_core = 0;
    EXPECT_THROW(Characterizer(kernel, config), ConfigError);
    config = {};
    config.execute_core = 99;
    EXPECT_THROW(Characterizer(kernel, config), ConfigError);
}

TEST(Characterizer, TestCellSafeStateShowsNoFaults) {
    sim::Machine machine(sim::skylake_i5_6500(), 2);
    os::Kernel kernel(machine);
    Characterizer chr(kernel, {});
    const CellResult cell = chr.test_cell(from_ghz(2.0), Millivolts{-50.0});
    EXPECT_EQ(cell.faults, 0u);
    EXPECT_FALSE(cell.crashed);
}

TEST(Characterizer, TestCellUnsafeStateFaults) {
    sim::Machine machine(sim::skylake_i5_6500(), 3);
    os::Kernel kernel(machine);
    Characterizer chr(kernel, {});
    const Megahertz f = from_ghz(2.0);
    const Millivolts onset = machine.fault_model().onset_offset(f, sim::InstrClass::Imul);
    const CellResult cell = chr.test_cell(f, onset - Millivolts{3.0});
    EXPECT_GT(cell.faults, 0u);
    EXPECT_FALSE(cell.crashed);
}

TEST(Characterizer, TestCellDeepOffsetCrashes) {
    sim::Machine machine(sim::skylake_i5_6500(), 4);
    os::Kernel kernel(machine);
    Characterizer chr(kernel, {});
    const Megahertz f = from_ghz(3.6);
    const Millivolts crash = machine.fault_model().crash_offset(f);
    const CellResult cell = chr.test_cell(f, crash - Millivolts{5.0});
    EXPECT_TRUE(cell.crashed);
    EXPECT_TRUE(machine.crashed());
}

TEST(Characterizer, TestCellRestoresNominalState) {
    sim::Machine machine(sim::skylake_i5_6500(), 5);
    os::Kernel kernel(machine);
    Characterizer chr(kernel, {});
    (void)chr.test_cell(from_ghz(2.0), Millivolts{-80.0});
    machine.advance_to(machine.rail_settle_time());
    EXPECT_NEAR(machine.applied_offset(sim::VoltagePlane::Core).value(), 0.0, 1.0);
}

// Full-sweep properties on all three paper profiles.  The expensive
// sweeps are shared through the cached_map helper.
class CharacterizationSweep : public ::testing::TestWithParam<int> {
protected:
    [[nodiscard]] const sim::CpuProfile profile() const {
        return sim::paper_profiles()[static_cast<std::size_t>(GetParam())];
    }
};

TEST_P(CharacterizationSweep, CoversWholeFrequencyTable) {
    const auto& map = test::cached_map(profile());
    EXPECT_EQ(map.rows().size(), profile().frequency_table().size());
    EXPECT_EQ(map.system_name(), profile().name);
}

TEST_P(CharacterizationSweep, CrashDeeperThanOnsetEverywhere) {
    const auto& map = test::cached_map(profile());
    for (const auto& row : map.rows()) {
        if (row.fault_free) continue;
        EXPECT_LE(row.crash, row.onset) << row.freq.value() << " MHz";
        EXPECT_LT(row.onset, Millivolts{0.0});
        EXPECT_GE(row.onset, map.sweep_floor());
    }
}

TEST_P(CharacterizationSweep, MatchesFaultModelPrediction) {
    const auto& map = test::cached_map(profile());
    const sim::FaultModel model(sim::TimingModel{profile().timing}, profile().vf_curve());
    for (const auto& row : map.rows()) {
        const Millivolts predicted = model.onset_offset(row.freq, sim::InstrClass::Imul);
        if (row.fault_free) {
            // No faults observed: the true onset must be at or below the
            // sweep floor (within one step + sampling slack).
            EXPECT_LT(predicted.value(), map.sweep_floor().value() + 6.0)
                << row.freq.value() << " MHz";
        } else {
            // Measured onset within one sweep step + statistical slack of
            // the physics prediction.
            EXPECT_NEAR(row.onset.value(), predicted.value(), 10.0)  // step + thermal drift
                << row.freq.value() << " MHz";
        }
    }
}

TEST_P(CharacterizationSweep, OnsetMagnitudeShrinksWithFrequency) {
    const auto& map = test::cached_map(profile());
    double prev = -1e9;
    for (const auto& row : map.rows()) {
        if (row.fault_free) continue;
        EXPECT_GE(row.onset.value(), prev - 6.0) << row.freq.value() << " MHz";
        prev = std::max(prev, row.onset.value());
    }
}

INSTANTIATE_TEST_SUITE_P(PaperProfiles, CharacterizationSweep, ::testing::Values(0, 1, 2));

// Whole sweeps run the cell probe under the engine's one-worker
// exhaustive scan, the plain Algorithm 2 sweep.
TEST(Characterizer, SweepIsDeterministic) {
    auto run = [] {
        CharacterizerConfig config;
        config.offset_step = Millivolts{10.0};
        return test::exhaustive_map(sim::cometlake_i7_10510u(), config, 77).to_csv();
    };
    EXPECT_EQ(run(), run());
}

TEST(Characterizer, CrashCountMatchesCrashRows) {
    // Each crashing column ends the scan at its crash cell: exactly one
    // crash probe per crash row.
    CharacterizerConfig config;
    config.offset_step = Millivolts{10.0};
    ParallelCharacterizer engine(sim::cometlake_i7_10510u(),
                                 test::exhaustive_sweep(config, 78));
    const SafeStateMap map = engine.characterize();
    std::uint64_t crash_rows = 0;
    for (const auto& row : map.rows())
        if (row.crash >= map.sweep_floor()) ++crash_rows;
    EXPECT_GT(crash_rows, 0u);
    EXPECT_EQ(engine.stats().crash_probes, crash_rows);
}

TEST(Characterizer, PerClassMapsOrderByPathLength) {
    // FpMul's shorter path faults only at deeper offsets than imul's —
    // an imul-based map is the conservative choice for defense.
    auto characterize_class = [](sim::InstrClass cls) {
        CharacterizerConfig config;
        config.offset_step = Millivolts{5.0};
        config.instr_class = cls;
        return test::exhaustive_map(sim::cometlake_i7_10510u(), config, 80);
    };
    const SafeStateMap imul = characterize_class(sim::InstrClass::Imul);
    const SafeStateMap fpmul = characterize_class(sim::InstrClass::FpMul);
    const Megahertz fmax = sim::cometlake_i7_10510u().freq_max;
    EXPECT_LT(fpmul.safe_limit(fmax, Millivolts{0.0}),
              imul.safe_limit(fmax, Millivolts{0.0}));
    EXPECT_LT(fpmul.maximal_safe_offset(kDefaultGuardBand),
              imul.maximal_safe_offset(kDefaultGuardBand));
}

TEST(Characterizer, PreheatedSweepMeasuresShallowerOnsets) {
    auto characterize_at = [](double preheat) {
        CharacterizerConfig config;
        config.offset_step = Millivolts{5.0};
        config.die_preheat_c = preheat;
        return test::exhaustive_map(sim::cometlake_i7_10510u(), config, 81);
    };
    const SafeStateMap cold = characterize_at(0.0);
    const SafeStateMap hot = characterize_at(85.0);
    const Megahertz fmax = sim::cometlake_i7_10510u().freq_max;
    // Hot silicon faults earlier: the hot map's onset is shallower and
    // its maximal safe state is the conservative one to deploy.
    EXPECT_GT(hot.safe_limit(fmax, Millivolts{0.0}),
              cold.safe_limit(fmax, Millivolts{0.0}) + Millivolts{10.0});
    EXPECT_GT(hot.maximal_safe_offset(kDefaultGuardBand),
              cold.maximal_safe_offset(kDefaultGuardBand));
}

TEST(Characterizer, ProgressCallbackFiresPerColumn) {
    CharacterizerConfig config;
    config.offset_step = Millivolts{20.0};
    ParallelCharacterizer engine(sim::skylake_i5_6500(), test::exhaustive_sweep(config, 79));
    unsigned calls = 0;
    (void)engine.characterize([&](const FreqCharacterization&) { ++calls; });
    EXPECT_EQ(calls, sim::skylake_i5_6500().frequency_table().size());
}

}  // namespace
}  // namespace pv::plugvolt
