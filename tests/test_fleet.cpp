// Fleet subsystem unit + property tests: SiliconLot's determinism and
// tolerance contracts, PopulationEnvelope's exclusion-semantics clamp
// algebra, and the FleetOrchestrator's configuration/equivalence
// surface.  The expensive end-to-end guarantees (bit-identity to cold
// solo sweeps, probe budgets, kill/resume, committed fingerprints) live
// in the sibling fleet differential / soak / golden suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_orchestrator.hpp"
#include "fleet/population_envelope.hpp"
#include "fleet/silicon_lot.hpp"
#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "prop/prop.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pv::fleet {
namespace {

// ---------------------------------------------------------------- SiliconLot

TEST(SiliconLot, JitterIsDeterministicInLotSeedAndUnitId) {
    const SiliconLot a(sim::cometlake_i7_10510u(), {});
    const SiliconLot b(sim::cometlake_i7_10510u(), {});
    PROP_CHECK(0xF1EE'7001, 200,
               [&](std::int64_t unit) {
                   const auto id = static_cast<std::uint64_t>(unit);
                   const UnitJitter x = a.jitter(id);
                   const UnitJitter y = b.jitter(id);
                   return x.alpha_scale == y.alpha_scale &&
                          x.vth_delta_mv == y.vth_delta_mv &&
                          x.path_scale == y.path_scale &&
                          x.crash_path_scale == y.crash_path_scale;
               },
               prop::IntDomain{0, 1'000'000});
}

TEST(SiliconLot, JitterIsUnitOrderIndependent) {
    // Sample the same ids ascending on one lot and descending on a
    // twin: a shared RNG stream would make the draws order-sensitive.
    const SiliconLot forward(sim::skylake_i5_6500(), {});
    const SiliconLot backward(sim::skylake_i5_6500(), {});
    constexpr std::uint64_t kUnits = 64;
    std::vector<UnitJitter> up(kUnits), down(kUnits);
    for (std::uint64_t u = 0; u < kUnits; ++u) up[u] = forward.jitter(u);
    for (std::uint64_t u = kUnits; u-- > 0;) down[u] = backward.jitter(u);
    for (std::uint64_t u = 0; u < kUnits; ++u) {
        EXPECT_EQ(up[u].alpha_scale, down[u].alpha_scale) << "unit " << u;
        EXPECT_EQ(up[u].vth_delta_mv, down[u].vth_delta_mv) << "unit " << u;
        EXPECT_EQ(up[u].path_scale, down[u].path_scale) << "unit " << u;
        EXPECT_EQ(up[u].crash_path_scale, down[u].crash_path_scale) << "unit " << u;
    }
}

TEST(SiliconLot, DistinctLotSeedsProduceDistinctJitter) {
    LotConfig other;
    other.lot_seed = 0xB0B'CAFE;
    const SiliconLot a(sim::cometlake_i7_10510u(), {});
    const SiliconLot b(sim::cometlake_i7_10510u(), other);
    bool any_difference = false;
    for (std::uint64_t u = 0; u < 8 && !any_difference; ++u)
        any_difference = a.jitter(u).vth_delta_mv != b.jitter(u).vth_delta_mv;
    EXPECT_TRUE(any_difference);
}

TEST(SiliconLot, JitterIsHardBoundedByTheConfiguredTolerances) {
    LotConfig cfg;  // exercise non-default bounds too
    cfg.alpha_tolerance = 0.02;
    cfg.vth_tolerance_mv = 6.0;
    cfg.path_tolerance = 0.015;
    cfg.crash_path_tolerance = 0.004;
    const SiliconLot lot(sim::kabylake_r_i5_8250u(), cfg);
    PROP_CHECK(0xF1EE'7002, 500,
               [&](std::int64_t unit) {
                   const UnitJitter j = lot.jitter(static_cast<std::uint64_t>(unit));
                   // The clamp in bounded_deviate makes these EXACT
                   // bounds, not 3-sigma statements.
                   return j.alpha_scale >= 1.0 - cfg.alpha_tolerance &&
                          j.alpha_scale <= 1.0 + cfg.alpha_tolerance &&
                          j.vth_delta_mv >= -cfg.vth_tolerance_mv &&
                          j.vth_delta_mv <= cfg.vth_tolerance_mv &&
                          j.path_scale >= 1.0 - cfg.path_tolerance &&
                          j.path_scale <= 1.0 + cfg.path_tolerance &&
                          j.crash_path_scale >= 1.0 - cfg.crash_path_tolerance &&
                          j.crash_path_scale <= 1.0 + cfg.crash_path_tolerance;
               },
               prop::IntDomain{0, 10'000'000});
}

TEST(SiliconLot, ZeroTolerancesYieldTheBaseProfileExactly) {
    LotConfig cfg;
    cfg.alpha_tolerance = 0.0;
    cfg.vth_tolerance_mv = 0.0;
    cfg.path_tolerance = 0.0;
    cfg.crash_path_tolerance = 0.0;
    const SiliconLot lot(sim::cometlake_i7_10510u(), cfg);
    const UnitJitter j = lot.jitter(17);
    EXPECT_EQ(j.alpha_scale, 1.0);
    EXPECT_EQ(j.vth_delta_mv, 0.0);
    EXPECT_EQ(j.path_scale, 1.0);
    EXPECT_EQ(j.crash_path_scale, 1.0);
    const sim::CpuProfile base = sim::cometlake_i7_10510u();
    const sim::CpuProfile unit = lot.unit_profile(17);
    EXPECT_EQ(unit.timing.alpha, base.timing.alpha);
    EXPECT_EQ(unit.timing.threshold_voltage, base.timing.threshold_voltage);
    EXPECT_EQ(unit.timing.path_constant_ps, base.timing.path_constant_ps);
    EXPECT_EQ(unit.timing.crash_path_factor, base.timing.crash_path_factor);
}

TEST(SiliconLot, UnitProfileIsAParameterOverlayOnly) {
    const sim::CpuProfile base = sim::cometlake_i7_10510u();
    const SiliconLot lot(base, {});
    const UnitJitter j = lot.jitter(5);
    const sim::CpuProfile unit = lot.unit_profile(5);
    EXPECT_EQ(unit.name, base.name + "#u5");
    // The frequency table is shared lot-wide (the journal's framing
    // invariant) and everything outside TimingParams stays untouched.
    EXPECT_EQ(unit.freq_min, base.freq_min);
    EXPECT_EQ(unit.freq_max, base.freq_max);
    EXPECT_EQ(unit.freq_step, base.freq_step);
    ASSERT_EQ(unit.frequency_table().size(), base.frequency_table().size());
    EXPECT_EQ(unit.timing.alpha, base.timing.alpha * j.alpha_scale);
    EXPECT_EQ(unit.timing.threshold_voltage,
              base.timing.threshold_voltage + Millivolts{j.vth_delta_mv});
    EXPECT_EQ(unit.timing.path_constant_ps, base.timing.path_constant_ps * j.path_scale);
    EXPECT_EQ(unit.timing.crash_path_factor,
              base.timing.crash_path_factor * j.crash_path_scale);
    EXPECT_EQ(unit.timing.setup_time_ps, base.timing.setup_time_ps);
    EXPECT_EQ(unit.timing.clock_uncertainty_ps, base.timing.clock_uncertainty_ps);
    EXPECT_EQ(unit.timing.sigma_fraction, base.timing.sigma_fraction);
}

TEST(SiliconLot, DefaultToleranceUnitsBootOnAllPaperProfiles) {
    // sim::Machine validates crash-free nominal boot at construction;
    // a jittered die that fails it would throw here.
    sim::CpuProfile (*const profiles[])() = {
        sim::skylake_i5_6500, sim::kabylake_r_i5_8250u, sim::cometlake_i7_10510u};
    for (const auto profile : profiles) {
        const SiliconLot lot(profile(), {});
        for (std::uint64_t u = 0; u < 12; ++u)
            EXPECT_NO_THROW(sim::Machine(lot.unit_profile(u), 0xB007 + u))
                << lot.base().name << " unit " << u;
    }
}

TEST(SiliconLot, InvalidTolerancesThrow) {
    LotConfig negative;
    negative.vth_tolerance_mv = -1.0;
    EXPECT_THROW(SiliconLot(sim::cometlake_i7_10510u(), negative), ConfigError);
    LotConfig nan;
    nan.alpha_tolerance = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(SiliconLot(sim::cometlake_i7_10510u(), nan), ConfigError);
}

TEST(SiliconLot, ConfigHashCoversBaseProfileAndLotConfig) {
    const SiliconLot ref(sim::cometlake_i7_10510u(), {});
    EXPECT_EQ(ref.config_hash(), SiliconLot(sim::cometlake_i7_10510u(), {}).config_hash());
    EXPECT_NE(ref.config_hash(), SiliconLot(sim::skylake_i5_6500(), {}).config_hash());
    LotConfig reseeded;
    reseeded.lot_seed ^= 1;
    EXPECT_NE(ref.config_hash(),
              SiliconLot(sim::cometlake_i7_10510u(), reseeded).config_hash());
    LotConfig widened;
    widened.vth_tolerance_mv += 0.5;
    EXPECT_NE(ref.config_hash(),
              SiliconLot(sim::cometlake_i7_10510u(), widened).config_hash());
}

// ---------------------------------------------------- PopulationEnvelope

/// Single-row synthetic map with a known onset: m_u under the default
/// 15 mV guard is min(0, onset + 15).
plugvolt::SafeStateMap onset_map(double onset_mv) {
    plugvolt::SafeStateMap map("synthetic", Millivolts{-300.0});
    map.add({.freq = Megahertz{1000.0},
             .onset = Millivolts{onset_mv},
             .crash = Millivolts{onset_mv - 10.0},
             .fault_free = false});
    return map;
}

TEST(PopulationEnvelope, ClampAtYieldImplementsExclusionSemantics) {
    PopulationEnvelope env;
    // m_u = onset + 15: -85, -95, ..., -175 (unit 0 shallowest).
    for (std::uint64_t u = 0; u < 10; ++u)
        env.add(u, onset_map(-100.0 - 10.0 * static_cast<double>(u)));
    EXPECT_EQ(env.units(), 10u);
    EXPECT_EQ(env.unit_clamp(0), Millivolts{-85.0});
    EXPECT_EQ(env.unit_clamp(9), Millivolts{-175.0});
    // e = floor((1-y)*10) units may be excluded; the clamp is the
    // (e+1)-th shallowest m_u.  Yields are chosen off the 1/N lattice:
    // ON the lattice, (1-y) in binary floating point rounds just below
    // the exact budget and the floor lands one unit conservative (e.g.
    // y = 0.9 yields e = 0, protecting all ten) — conservative is fine,
    // but not lattice-stable to pin here.
    EXPECT_EQ(env.clamp_at_yield(1.0), Millivolts{-85.0});    // e = 0
    EXPECT_EQ(env.clamp_at_yield(0.95), Millivolts{-85.0});   // e = 0 (floor)
    EXPECT_EQ(env.clamp_at_yield(0.85), Millivolts{-95.0});   // e = 1
    EXPECT_EQ(env.clamp_at_yield(0.75), Millivolts{-105.0});  // e = 2
    EXPECT_EQ(env.clamp_at_yield(0.05), Millivolts{-175.0});  // e = 9
    // yield_at_clamp counts units with m_u <= clamp.
    EXPECT_DOUBLE_EQ(env.yield_at_clamp(Millivolts{-85.0}), 1.0);
    EXPECT_DOUBLE_EQ(env.yield_at_clamp(Millivolts{-95.0}), 0.9);
    EXPECT_DOUBLE_EQ(env.yield_at_clamp(Millivolts{-176.0}), 0.0);
}

TEST(PopulationEnvelope, FullYieldClampOnlyTightensAsUnitsArrive) {
    // The unconditional true form: at y = 1.0 the clamp is the max over
    // a growing set, so adding a unit can only keep it or pull it
    // SHALLOWER (numerically larger).
    Rng rng(0xE57'0001);
    PopulationEnvelope env;
    env.add(0, onset_map(-80.0 - static_cast<double>(rng.uniform_below(200))));
    Millivolts clamp = env.clamp_at_yield(1.0);
    for (std::uint64_t u = 1; u < 40; ++u) {
        env.add(u, onset_map(-80.0 - static_cast<double>(rng.uniform_below(200))));
        const Millivolts next = env.clamp_at_yield(1.0);
        EXPECT_GE(next, clamp) << "unit " << u << " deepened the protect-all clamp";
        clamp = next;
    }
}

TEST(PopulationEnvelope, FixedExclusionBudgetClampNeverDeepens) {
    // The conditional form at general yield: whenever a new unit does
    // NOT grow the exclusion budget e = floor((1-y)N), the clamp cannot
    // step deeper (when e does grow, it may — by design).
    const double yields[] = {0.999, 0.99, 0.9, 0.8};
    Rng rng(0xE57'0002);
    PopulationEnvelope env;
    env.add(0, onset_map(-80.0 - static_cast<double>(rng.uniform_below(200))));
    for (std::uint64_t u = 1; u < 60; ++u) {
        const std::size_t n = env.units();
        std::vector<Millivolts> before;
        for (const double y : yields) before.push_back(env.clamp_at_yield(y));
        env.add(u, onset_map(-80.0 - static_cast<double>(rng.uniform_below(200))));
        for (std::size_t k = 0; k < std::size(yields); ++k) {
            const double y = yields[k];
            const auto budget_before =
                static_cast<std::size_t>(std::floor((1.0 - y) * static_cast<double>(n)));
            const auto budget_after = static_cast<std::size_t>(
                std::floor((1.0 - y) * static_cast<double>(n + 1)));
            if (budget_before == budget_after) {
                EXPECT_GE(env.clamp_at_yield(y), before[k])
                    << "unit " << u << " deepened the clamp at yield " << y
                    << " without a new exclusion slot";
            }
        }
    }
}

TEST(PopulationEnvelope, YieldAtClampRoundTripsAtLeastTheRequestedYield) {
    Rng rng(0xE57'0003);
    PopulationEnvelope env;
    for (std::uint64_t u = 0; u < 25; ++u)
        env.add(u, onset_map(-80.0 - static_cast<double>(rng.uniform_below(200))));
    for (const double y : {1.0, 0.999, 0.96, 0.9, 0.84, 0.5, 0.2, 0.04})
        EXPECT_GE(env.yield_at_clamp(env.clamp_at_yield(y)), y) << "yield " << y;
}

TEST(PopulationEnvelope, StateHashIsInsertionOrderIndependent) {
    std::vector<std::pair<std::uint64_t, double>> units;
    Rng rng(0xE57'0004);
    for (std::uint64_t u = 0; u < 16; ++u)
        units.emplace_back(u, -80.0 - static_cast<double>(rng.uniform_below(200)));
    PopulationEnvelope forward, shuffled;
    for (const auto& [id, onset] : units) forward.add(id, onset_map(onset));
    std::vector<std::pair<std::uint64_t, double>> reordered = units;
    for (std::size_t i = reordered.size(); i > 1; --i)
        std::swap(reordered[i - 1], reordered[rng.uniform_below(i)]);
    for (const auto& [id, onset] : reordered) shuffled.add(id, onset_map(onset));
    EXPECT_EQ(state_hash(forward), state_hash(shuffled));
    EXPECT_EQ(forward.clamp_at_yield(1.0), shuffled.clamp_at_yield(1.0));
}

TEST(PopulationEnvelope, GuardBandCurveIsMonotone) {
    Rng rng(0xE57'0005);
    PopulationEnvelope env;
    for (std::uint64_t u = 0; u < 20; ++u)
        env.add(u, onset_map(-80.0 - static_cast<double>(rng.uniform_below(200))));
    const std::vector<YieldPoint> curve = env.guard_band_curve();
    ASSERT_EQ(curve.size(), env.units());
    EXPECT_EQ(curve.front().excluded, 0u);
    EXPECT_DOUBLE_EQ(curve.front().yield, 1.0);
    for (std::size_t e = 1; e < curve.size(); ++e) {
        EXPECT_EQ(curve[e].excluded, e);
        // Excluding more units buys depth (clamp numerically <=) and
        // can only lose yield.
        EXPECT_LE(curve[e].clamp, curve[e - 1].clamp);
        EXPECT_LE(curve[e].yield, curve[e - 1].yield);
        // Within one double ulp: 1 - e/N rounds a hair above the exact
        // protected/N quotient when e/N is inexact in binary.
        EXPECT_GE(curve[e].yield + 1e-12,
                  1.0 - static_cast<double>(e) / static_cast<double>(curve.size()));
    }
}

TEST(PopulationEnvelope, OutlierDetectionFlagsTheEscapeAndHonorsTheMadFloor) {
    PopulationEnvelope env;
    for (std::uint64_t u = 0; u < 9; ++u) env.add(u, onset_map(-100.0));
    env.add(9, onset_map(-250.0));  // an escape, far off the lot median
    const std::vector<std::uint64_t> outliers = env.outlier_units();
    ASSERT_EQ(outliers.size(), 1u);
    EXPECT_EQ(outliers[0], 9u);

    // A mad floor above the spread swallows the deviation entirely.
    EnvelopeConfig lax;
    lax.mad_floor_mv = 100.0;
    PopulationEnvelope forgiving(lax);
    for (std::uint64_t u = 0; u < 9; ++u) forgiving.add(u, onset_map(-100.0));
    forgiving.add(9, onset_map(-250.0));
    EXPECT_TRUE(forgiving.outlier_units().empty());

    // Fewer than three units: no meaningful spread statistic.
    PopulationEnvelope tiny;
    tiny.add(0, onset_map(-100.0));
    tiny.add(1, onset_map(-250.0));
    EXPECT_TRUE(tiny.outlier_units().empty());
}

TEST(PopulationEnvelope, RowsAndCsvSummarizeTheFleetSpread) {
    PopulationEnvelope env;
    // Two-row maps: onsets spread at 1000 MHz, unit 2 fault-free at
    // 2000 MHz.
    for (std::uint64_t u = 0; u < 3; ++u) {
        plugvolt::SafeStateMap map("synthetic", Millivolts{-300.0});
        const double onset = -100.0 - 20.0 * static_cast<double>(u);
        map.add({.freq = Megahertz{1000.0},
                 .onset = Millivolts{onset},
                 .crash = Millivolts{onset - 30.0},
                 .fault_free = false});
        if (u == 2)
            map.add({.freq = Megahertz{2000.0},
                     .onset = Millivolts{0.0},
                     .crash = Millivolts{-290.0},
                     .fault_free = true});
        else
            map.add({.freq = Megahertz{2000.0},
                     .onset = Millivolts{-200.0},
                     .crash = Millivolts{-240.0},
                     .fault_free = false});
        env.add(u, map);
    }
    const std::vector<EnvelopeRow> rows = env.rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].freq, Megahertz{1000.0});
    EXPECT_EQ(rows[0].fault_free_units, 0u);
    EXPECT_EQ(rows[0].onset_min, Millivolts{-140.0});
    EXPECT_EQ(rows[0].onset_median, Millivolts{-120.0});
    EXPECT_EQ(rows[0].onset_max, Millivolts{-100.0});
    EXPECT_EQ(rows[0].crash_min, Millivolts{-170.0});
    EXPECT_EQ(rows[0].crash_max, Millivolts{-130.0});
    EXPECT_EQ(rows[1].fault_free_units, 1u);
    // Onset statistics cover the two faulting units only.
    EXPECT_EQ(rows[1].onset_min, Millivolts{-200.0});
    EXPECT_EQ(rows[1].onset_max, Millivolts{-200.0});
    for (const EnvelopeRow& row : rows) {
        EXPECT_LE(row.onset_min, row.onset_median);
        EXPECT_LE(row.onset_median, row.onset_max);
        EXPECT_LE(row.crash_min, row.crash_median);
        EXPECT_LE(row.crash_median, row.crash_max);
    }
    const std::string csv = env.to_csv();
    EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
              rows.size() + 1);  // header + one line per frequency
    EXPECT_NE(csv.find("freq_mhz"), std::string::npos);
    EXPECT_NE(csv.find("fault_free_units"), std::string::npos);
}

TEST(PopulationEnvelope, RejectsInvalidFoldsAndQueries) {
    PopulationEnvelope env;
    EXPECT_THROW((void)env.clamp_at_yield(1.0), ConfigError);
    EXPECT_THROW((void)env.yield_at_clamp(Millivolts{-50.0}), ConfigError);
    EXPECT_THROW((void)env.guard_band_curve(), ConfigError);
    EXPECT_THROW(env.add(0, plugvolt::SafeStateMap("empty", Millivolts{-300.0})),
                 ConfigError);
    env.add(0, onset_map(-100.0));
    EXPECT_THROW(env.add(0, onset_map(-120.0)), ConfigError);  // duplicate id
    plugvolt::SafeStateMap other_table("synthetic", Millivolts{-300.0});
    other_table.add({.freq = Megahertz{1234.0},
                     .onset = Millivolts{-100.0},
                     .crash = Millivolts{-120.0},
                     .fault_free = false});
    EXPECT_THROW(env.add(1, other_table), ConfigError);  // frequency mismatch
    EXPECT_THROW((void)env.clamp_at_yield(0.0), ConfigError);
    EXPECT_THROW((void)env.clamp_at_yield(1.5), ConfigError);
    EXPECT_THROW((void)env.unit_clamp(42), ConfigError);
    EnvelopeConfig bad;
    bad.outlier_threshold = 0.0;
    EXPECT_THROW(PopulationEnvelope{bad}, ConfigError);
    EnvelopeConfig negative_floor;
    negative_floor.mad_floor_mv = -1.0;
    EXPECT_THROW(PopulationEnvelope{negative_floor}, ConfigError);
}

// ------------------------------------------------------- FleetOrchestrator

FleetConfig small_fleet_config() {
    FleetConfig cfg;
    cfg.units = 6;
    cfg.sweep.cell.offset_step = Millivolts{10.0};
    cfg.sweep.mode = plugvolt::SweepMode::Bisection;
    cfg.envelope.mad_floor_mv = 10.0;  // match the characterization step
    return cfg;
}

TEST(FleetOrchestrator, RejectsInvalidConfigs) {
    const SiliconLot lot(sim::cometlake_i7_10510u(), {});
    FleetConfig zero = small_fleet_config();
    zero.units = 0;
    EXPECT_THROW(FleetOrchestrator(lot, zero), ConfigError);
    FleetConfig preset_warm = small_fleet_config();
    preset_warm.sweep.warm_start = [](std::size_t) {
        return std::optional<plugvolt::RowWarmStart>{};
    };
    EXPECT_THROW(FleetOrchestrator(lot, preset_warm), ConfigError);
}

// One worker runs rows on the calling thread, two on a pool: the map,
// the config fingerprint and the probe work must not tell them apart.
TEST(FleetOrchestrator, InlineAndPooledRowEnginesProduceTheSameMap) {
    for (const plugvolt::SweepMode mode :
         {plugvolt::SweepMode::Exhaustive, plugvolt::SweepMode::Bisection,
          plugvolt::SweepMode::Adaptive}) {
        SCOPED_TRACE(plugvolt::to_string(mode));
        plugvolt::ParallelCharacterizerConfig serial;
        serial.cell.offset_step = Millivolts{10.0};
        serial.mode = mode;
        if (mode == plugvolt::SweepMode::Adaptive) serial.planner = infer::adaptive_planner();
        serial.workers = 1;
        plugvolt::ParallelCharacterizerConfig pooled = serial;
        pooled.workers = 2;
        plugvolt::ParallelCharacterizer a(sim::cometlake_i7_10510u(), serial);
        plugvolt::ParallelCharacterizer b(sim::cometlake_i7_10510u(), pooled);
        EXPECT_EQ(state_hash(a.characterize()), state_hash(b.characterize()));
        EXPECT_EQ(a.config_hash(), b.config_hash());
        EXPECT_EQ(a.stats().cells_evaluated, b.stats().cells_evaluated);
        EXPECT_EQ(a.stats().crash_probes, b.stats().crash_probes);
        EXPECT_EQ(a.stats().rows, b.stats().rows);
        EXPECT_GT(a.stats().cells_evaluated, 0u);
    }
}

TEST(FleetOrchestrator, EnvelopeIsIndependentOfWorkersAndWarmStart) {
    const SiliconLot lot(sim::cometlake_i7_10510u(), {});
    FleetOrchestrator warm2(lot, small_fleet_config());
    FleetConfig one_worker = small_fleet_config();
    one_worker.workers = 1;
    FleetOrchestrator warm1(lot, one_worker);
    FleetConfig cold_cfg = small_fleet_config();
    cold_cfg.warm_start = false;
    FleetOrchestrator cold(lot, cold_cfg);

    const std::uint64_t reference = state_hash(warm2.characterize());
    EXPECT_EQ(state_hash(warm1.characterize()), reference);
    EXPECT_EQ(state_hash(cold.characterize()), reference);
    EXPECT_EQ(cold.stats().warm_rows, 0u);
    EXPECT_GT(warm2.stats().warm_rows, 0u);
    EXPECT_EQ(warm2.stats().units, small_fleet_config().units);
    // Warm starts shrink probe cost, never results.
    EXPECT_LT(warm1.stats().cells_evaluated, cold.stats().cells_evaluated);
}

TEST(FleetOrchestrator, EnvelopeClampsMatchTheUnitsOwnMaps) {
    const SiliconLot lot(sim::cometlake_i7_10510u(), {});
    FleetOrchestrator fleet(lot, small_fleet_config());
    std::vector<std::uint64_t> delivered;
    const PopulationEnvelope env = fleet.characterize(
        [&](std::uint64_t unit_id, const plugvolt::SafeStateMap& map) {
            delivered.push_back(unit_id);
            EXPECT_EQ(map.system_name(), lot.unit_profile(unit_id).name);
        });
    // Progress arrives in unit-id order, one call per unit.
    ASSERT_EQ(delivered.size(), small_fleet_config().units);
    for (std::uint64_t u = 0; u < delivered.size(); ++u) EXPECT_EQ(delivered[u], u);
    for (std::uint64_t u = 0; u < env.units(); ++u)
        EXPECT_EQ(env.unit_clamp(u), fleet.characterize_unit(u).maximal_safe_offset(
                                         fleet.config().envelope.guard));
}

TEST(FleetOrchestrator, JournalRowsBeyondTheFleetAreRejected) {
    const SiliconLot lot(sim::cometlake_i7_10510u(), {});
    FleetOrchestrator fleet(lot, small_fleet_config());
    const std::string path = ::testing::TempDir() + "pv_fleet_bad_row.pvj";
    std::remove(path.c_str());
    {
        resilience::SweepJournal journal =
            resilience::SweepJournal::open(path, fleet.config_hash(), {});
        resilience::RowRecord rogue;
        rogue.row_index = small_fleet_config().units * fleet.row_stride();
        rogue.freq_mhz = lot.base().frequency_table().front().value();
        journal.commit(rogue);
        EXPECT_THROW((void)fleet.characterize(journal), JournalError);
    }
    std::remove(path.c_str());
}

TEST(FleetOrchestrator, MismatchedJournalConfigIsRejected) {
    const SiliconLot lot(sim::cometlake_i7_10510u(), {});
    FleetOrchestrator fleet(lot, small_fleet_config());
    FleetConfig bigger = small_fleet_config();
    bigger.units = 8;
    FleetOrchestrator other(lot, bigger);
    EXPECT_NE(fleet.config_hash(), other.config_hash());
    const std::string path = ::testing::TempDir() + "pv_fleet_bad_cfg.pvj";
    std::remove(path.c_str());
    {
        resilience::SweepJournal journal =
            resilience::SweepJournal::open(path, other.config_hash(), {});
        EXPECT_THROW((void)fleet.characterize(journal), ConfigError);
    }
    std::remove(path.c_str());
}

TEST(FleetOrchestrator, AdoptedRowMismatchThrowsJournalError) {
    plugvolt::ParallelCharacterizerConfig cfg;
    cfg.cell.offset_step = Millivolts{10.0};
    cfg.workers = 1;
    plugvolt::ParallelCharacterizer engine(sim::cometlake_i7_10510u(), cfg);
    resilience::RowRecord beyond;
    beyond.row_index = 1u << 20;
    EXPECT_THROW((void)engine.characterize_with({beyond}, {}), JournalError);
    resilience::RowRecord wrong_freq;
    wrong_freq.row_index = 0;
    wrong_freq.freq_mhz = -1.0;
    EXPECT_THROW((void)engine.characterize_with({wrong_freq}, {}), JournalError);
}

}  // namespace
}  // namespace pv::fleet
