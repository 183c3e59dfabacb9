// Sharded sweep engine: determinism across worker counts, bisection vs
// exhaustive map equality under every kind of prior, and agreement with
// the legacy serial driver.
#include "plugvolt/parallel_characterizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "plugvolt/limit_table.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace pv::plugvolt {
namespace {

ParallelCharacterizerConfig fast_config(unsigned workers, SweepMode mode,
                                        double step_mv = 5.0) {
    ParallelCharacterizerConfig config;
    config.cell.offset_step = Millivolts{step_mv};
    config.workers = workers;
    config.mode = mode;
    return config;
}

SafeStateMap sweep(const sim::CpuProfile& profile, const ParallelCharacterizerConfig& c) {
    ParallelCharacterizer engine(profile, c);
    return engine.characterize();
}

TEST(ParallelCharacterizer, RejectsBadConfig) {
    ParallelCharacterizerConfig config = fast_config(2, SweepMode::Bisection);
    config.refine_window = 0;
    EXPECT_THROW(ParallelCharacterizer(sim::skylake_i5_6500(), config), ConfigError);

    config = fast_config(2, SweepMode::Bisection);
    config.cell.dvfs_core = config.cell.execute_core = 0;
    EXPECT_THROW(ParallelCharacterizer(sim::skylake_i5_6500(), config), ConfigError);
}

TEST(ParallelCharacterizer, ZeroWorkersResolveToTheDefaultCount) {
    const ParallelCharacterizer engine(sim::skylake_i5_6500(),
                                       fast_config(0, SweepMode::Bisection));
    EXPECT_EQ(engine.config().workers, ThreadPool::default_worker_count());
}

TEST(ParallelCharacterizer, MapIsIndependentOfWorkerCount) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    const SafeStateMap one = sweep(profile, fast_config(1, SweepMode::Exhaustive));
    const SafeStateMap four = sweep(profile, fast_config(4, SweepMode::Exhaustive));
    const SafeStateMap eight = sweep(profile, fast_config(8, SweepMode::Exhaustive));
    EXPECT_EQ(one.to_csv(), four.to_csv());
    EXPECT_EQ(one.to_csv(), eight.to_csv());
}

TEST(ParallelCharacterizer, RepeatedSweepsAreBitIdentical) {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const auto config = fast_config(4, SweepMode::Bisection);
    EXPECT_EQ(sweep(profile, config).to_csv(), sweep(profile, config).to_csv());
}

// The acceptance property: the bisection fast path must reproduce the
// exhaustive reference map cell-for-cell.  Run at the paper's full 1 mV
// resolution — the stochastic observability band near the onset is
// widest there, which is exactly what refine_window has to cover — and
// under every kind of prior the row search can receive: none, the
// reference's own boundaries, those boundaries 3 steps off either way,
// and the sweep's extremes.  Priors move probes, never verdicts.
enum class HintSource { None, Exact, ShallowBy3, DeeperBy3, FirstStep, PastTheSweep };

constexpr int kHintSources = 6;

/// Parameter p: profile p % 2 (Sky Lake, Comet Lake), hint source p / 2,
/// so instances 0 and 1 are the unhinted sweeps.
class BisectionEquality : public ::testing::TestWithParam<int> {
protected:
    [[nodiscard]] sim::CpuProfile profile() const {
        return GetParam() % 2 == 0 ? sim::skylake_i5_6500() : sim::cometlake_i7_10510u();
    }
    [[nodiscard]] HintSource source() const { return static_cast<HintSource>(GetParam() / 2); }
};

/// The reference row's boundaries in steps, as the prior `source` sees
/// them.
RowWarmStart hint_for(HintSource source, const PlannedRow& ref, std::uint64_t steps) {
    const auto shifted = [steps](std::uint64_t step, int by) -> std::uint64_t {
        if (step == 0) return 0;
        const auto moved = static_cast<std::int64_t>(step) + by;
        return static_cast<std::uint64_t>(
            std::clamp<std::int64_t>(moved, 1, static_cast<std::int64_t>(steps) + 1));
    };
    switch (source) {
        case HintSource::None: break;
        case HintSource::Exact: return {ref.crash_step, ref.onset_step};
        case HintSource::ShallowBy3:
            return {shifted(ref.crash_step, -3), shifted(ref.onset_step, -3)};
        case HintSource::DeeperBy3:
            return {shifted(ref.crash_step, 3), shifted(ref.onset_step, 3)};
        case HintSource::FirstStep: return {1, 1};
        case HintSource::PastTheSweep: return {steps + 1, steps + 1};
    }
    return {};
}

TEST_P(BisectionEquality, MatchesExhaustiveReferenceCellForCell) {
    const sim::CpuProfile prof = profile();
    const ParallelCharacterizerConfig exhaustive =
        fast_config(4, SweepMode::Exhaustive, /*step_mv=*/1.0);
    const SafeStateMap reference = sweep(prof, exhaustive);
    std::vector<PlannedRow> ref_steps;
    for (std::size_t i = 0; i < reference.rows().size(); ++i) {
        const FreqCharacterization& row = reference.rows()[i];
        ref_steps.push_back(steps_from_row(
            resilience::RowRecord{.row_index = i,
                                  .freq_mhz = row.freq.value(),
                                  .onset_mv = row.onset.value(),
                                  .crash_mv = row.crash.value(),
                                  .fault_free = row.fault_free},
            exhaustive.cell));
    }

    ParallelCharacterizerConfig config = fast_config(4, SweepMode::Bisection, /*step_mv=*/1.0);
    const HintSource source = this->source();
    if (source != HintSource::None) {
        const std::uint64_t steps = sweep_steps(config.cell);
        config.warm_start = [source, ref_steps, steps](std::size_t row) {
            return std::optional<RowWarmStart>(hint_for(source, ref_steps[row], steps));
        };
    }
    const SafeStateMap fast = sweep(prof, config);
    ASSERT_EQ(reference.rows().size(), fast.rows().size());
    for (std::size_t i = 0; i < reference.rows().size(); ++i) {
        const FreqCharacterization& a = reference.rows()[i];
        const FreqCharacterization& b = fast.rows()[i];
        EXPECT_EQ(a.freq.value(), b.freq.value());
        EXPECT_EQ(a.onset.value(), b.onset.value()) << a.freq.value() << " MHz";
        EXPECT_EQ(a.crash.value(), b.crash.value()) << a.freq.value() << " MHz";
        EXPECT_EQ(a.fault_free, b.fault_free) << a.freq.value() << " MHz";
    }
    EXPECT_EQ(reference.to_csv(), fast.to_csv());
}

INSTANTIATE_TEST_SUITE_P(SkyLakeAndCometLake, BisectionEquality,
                         ::testing::Range(0, 2 * kHintSources));

TEST(ParallelCharacterizer, StepsFromRowInvertsTheStepToRowConversion) {
    CharacterizerConfig cell;
    cell.offset_step = Millivolts{7.0};  // 42 steps; the sentinel is -307 mV
    const auto row = [&cell](double onset_mv, double crash_mv, bool fault_free) {
        return steps_from_row(resilience::RowRecord{.row_index = 3,
                                                    .freq_mhz = 2000.0,
                                                    .onset_mv = onset_mv,
                                                    .crash_mv = crash_mv,
                                                    .fault_free = fault_free},
                              cell);
    };
    PlannedRow r = row(-140.0, -175.0, false);
    EXPECT_EQ(r.crash_step, 25u);
    EXPECT_EQ(r.onset_step, 20u);
    r = row(0.0, -307.0, true);  // never crashed, fault-free
    EXPECT_EQ(r.crash_step, 43u);
    EXPECT_EQ(r.onset_step, 0u);
    r = row(-294.0, -307.0, false);  // faults, no crash inside the sweep
    EXPECT_EQ(r.crash_step, 43u);
    EXPECT_EQ(r.onset_step, 42u);
    r = row(-175.0, -175.0, false);  // onset on the crash cell
    EXPECT_EQ(r.crash_step, 25u);
    EXPECT_EQ(r.onset_step, 25u);
    EXPECT_FALSE(r.anchored);
}

TEST(ParallelCharacterizer, BisectionEvaluatesFarFewerCells) {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    ParallelCharacterizer exhaustive(profile, fast_config(4, SweepMode::Exhaustive));
    ParallelCharacterizer bisect(profile, fast_config(4, SweepMode::Bisection));
    (void)exhaustive.characterize();
    (void)bisect.characterize();
    EXPECT_EQ(exhaustive.stats().rows, profile.frequency_table().size());
    EXPECT_EQ(bisect.stats().rows, profile.frequency_table().size());
    EXPECT_GT(exhaustive.stats().cells_evaluated, 0u);
    // O(log steps + window) vs O(steps): demand at least a 2x cut even
    // at the coarse 5 mV test resolution (at 1 mV it is ~10x).
    EXPECT_LT(bisect.stats().cells_evaluated * 2, exhaustive.stats().cells_evaluated);
    // Bisection spends crash probes on the boundary search; every one of
    // them is a reboot, and there must be at least one per crashing row.
    EXPECT_GT(bisect.stats().crash_probes, 0u);
}

TEST(ParallelCharacterizer, AgreesWithLegacySerialCharacterizer) {
    // The legacy driver carries clock/thermal state across a column's
    // cells, the engine boots every cell fresh; both measure the same
    // physics, so boundaries agree within one step plus thermal drift.
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const SafeStateMap& legacy = test::cached_map(profile);  // 5 mV legacy sweep
    const SafeStateMap engine = sweep(profile, fast_config(4, SweepMode::Bisection));
    ASSERT_EQ(legacy.rows().size(), engine.rows().size());
    for (std::size_t i = 0; i < legacy.rows().size(); ++i) {
        const FreqCharacterization& a = legacy.rows()[i];
        const FreqCharacterization& b = engine.rows()[i];
        if (a.fault_free != b.fault_free) {
            // Whether the very last grid cell above the floor shows a
            // fault is a coin toss between the two drivers' RNG streams;
            // tolerate disagreement only there, at the sweep's edge.
            const FreqCharacterization& seen = a.fault_free ? b : a;
            EXPECT_LT(seen.onset.value(), legacy.sweep_floor().value() + 15.0)
                << a.freq.value() << " MHz";
            continue;
        }
        if (a.fault_free) continue;
        EXPECT_NEAR(a.onset.value(), b.onset.value(), 10.0) << a.freq.value() << " MHz";
        EXPECT_NEAR(a.crash.value(), b.crash.value(), 10.0) << a.freq.value() << " MHz";
    }
    EXPECT_NEAR(legacy.maximal_safe_offset(kDefaultGuardBand).value(),
                engine.maximal_safe_offset(kDefaultGuardBand).value(), 10.0);
}

TEST(ParallelCharacterizer, ProgressArrivesInFrequencyOrder) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    ParallelCharacterizer engine(profile, fast_config(8, SweepMode::Bisection));
    std::vector<double> freqs;
    (void)engine.characterize(
        [&](const FreqCharacterization& row) { freqs.push_back(row.freq.value()); });
    EXPECT_EQ(freqs.size(), profile.frequency_table().size());
    EXPECT_TRUE(std::is_sorted(freqs.begin(), freqs.end()));
}

TEST(ParallelCharacterizer, HonorsDiePreheat) {
    // A hot map's boundaries are shallower — the engine must thread the
    // per-cell preheat through to every worker.
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    auto cold_config = fast_config(4, SweepMode::Bisection);
    auto hot_config = cold_config;
    hot_config.cell.die_preheat_c = 85.0;
    const SafeStateMap cold = sweep(profile, cold_config);
    const SafeStateMap hot = sweep(profile, hot_config);
    EXPECT_GT(hot.maximal_safe_offset(kDefaultGuardBand),
              cold.maximal_safe_offset(kDefaultGuardBand));
}

// The Adaptive engine's probe memo, driven by a planner that jumps
// between rows and asks again for cells it has already seen: every
// repeat returns the first result without a new probe, the probe log
// holds each (row, step) pair once in first-probe order, and the map
// hashes to the value the engine produced before its memo became a
// per-row table.
TEST(ParallelCharacterizer, AdaptiveMemoAnswersRepeatsOutOfRowOrder) {
    using Cell = std::pair<std::size_t, std::uint64_t>;
    std::vector<Cell> firsts;
    std::map<Cell, CellResult> seen;
    ParallelCharacterizerConfig config = fast_config(2, SweepMode::Adaptive, 10.0);
    config.planner = [&](const AdaptiveContext& ctx, const CellProbeFn& probe) {
        std::vector<PlannedRow> plan(ctx.rows, PlannedRow{ctx.steps + 1, 0, false});
        const std::size_t rows[] = {ctx.rows - 1, 0, ctx.rows / 2, 0, ctx.rows - 1, 1};
        const std::uint64_t steps[] = {ctx.steps, 1, ctx.steps / 2, ctx.steps / 3 + 1,
                                       ctx.steps};
        for (int pass = 0; pass < 2; ++pass) {
            for (const std::size_t row : rows) {
                for (const std::uint64_t step : steps) {
                    const CellResult cell = probe(row, step);
                    const auto [it, fresh] = seen.try_emplace(Cell{row, step}, cell);
                    if (fresh) {
                        firsts.emplace_back(row, step);
                    } else {
                        EXPECT_EQ(cell.faults, it->second.faults) << row << ":" << step;
                        EXPECT_EQ(cell.crashed, it->second.crashed) << row << ":" << step;
                    }
                    PlannedRow& verdict = plan[row];
                    verdict.anchored = true;
                    if (cell.crashed) {
                        verdict.crash_step = std::min(verdict.crash_step, step);
                    } else if (cell.faults > 0 &&
                               (verdict.onset_step == 0 || step < verdict.onset_step)) {
                        verdict.onset_step = step;
                    }
                }
            }
        }
        for (PlannedRow& verdict : plan)
            verdict.onset_step = std::min(verdict.onset_step, verdict.crash_step);
        return plan;
    };
    ParallelCharacterizer engine(sim::skylake_i5_6500(), config);
    const SafeStateMap map = engine.characterize();

    // 60 asks of 4 rows x 4 steps.
    ASSERT_EQ(firsts.size(), 16u);
    const std::vector<ProbeLogEntry>& log = engine.adaptive_probe_log();
    ASSERT_EQ(log.size(), firsts.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(log[i].row, firsts[i].first) << "entry " << i;
        EXPECT_EQ(log[i].step, firsts[i].second) << "entry " << i;
        const CellResult& first = seen.at(firsts[i]);
        EXPECT_EQ(log[i].faults, first.faults) << "entry " << i;
        EXPECT_EQ(log[i].crashed, first.crashed) << "entry " << i;
    }
    EXPECT_EQ(engine.stats().cells_evaluated, firsts.size());
    EXPECT_EQ(state_hash(map), 0x3DAA'86F4'0B0E'1793u);
}

}  // namespace
}  // namespace pv::plugvolt
