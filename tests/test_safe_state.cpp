#include "plugvolt/safe_state.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "plugvolt/limit_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pv::plugvolt {
namespace {

SafeStateMap make_map() {
    SafeStateMap map("test-system", Millivolts{-300.0});
    map.add({.freq = from_ghz(1.0), .onset = Millivolts{-250.0}, .crash = Millivolts{-260.0}});
    map.add({.freq = from_ghz(2.0), .onset = Millivolts{-200.0}, .crash = Millivolts{-215.0}});
    map.add({.freq = from_ghz(3.0), .onset = Millivolts{-120.0}, .crash = Millivolts{-145.0}});
    return map;
}

TEST(SafeStateMap, ClassifiesRegions) {
    const SafeStateMap map = make_map();
    EXPECT_EQ(map.classify(from_ghz(2.0), Millivolts{0.0}), StateClass::Safe);
    EXPECT_EQ(map.classify(from_ghz(2.0), Millivolts{-199.0}), StateClass::Safe);
    EXPECT_EQ(map.classify(from_ghz(2.0), Millivolts{-200.0}), StateClass::Unsafe);
    EXPECT_EQ(map.classify(from_ghz(2.0), Millivolts{-214.0}), StateClass::Unsafe);
    EXPECT_EQ(map.classify(from_ghz(2.0), Millivolts{-215.0}), StateClass::Crash);
    EXPECT_EQ(map.classify(from_ghz(2.0), Millivolts{-299.0}), StateClass::Crash);
}

TEST(SafeStateMap, UsesNearestFrequencyRow) {
    const SafeStateMap map = make_map();
    // 1.4 GHz is nearest to the 1.0 GHz row; 1.6 GHz to the 2.0 GHz row.
    EXPECT_EQ(map.classify(Megahertz{1400.0}, Millivolts{-230.0}), StateClass::Safe);
    EXPECT_EQ(map.classify(Megahertz{1600.0}, Millivolts{-230.0}), StateClass::Crash);
}

TEST(SafeStateMap, FaultFreeRowsSafeToSweepFloor) {
    SafeStateMap map("t", Millivolts{-300.0});
    map.add({.freq = from_ghz(0.5),
             .onset = Millivolts{0.0},
             .crash = Millivolts{-301.0},
             .fault_free = true});
    EXPECT_EQ(map.classify(from_ghz(0.5), Millivolts{-300.0}), StateClass::Safe);
    // Below the sweep floor nothing was characterized: conservative.
    EXPECT_EQ(map.classify(from_ghz(0.5), Millivolts{-301.0}), StateClass::Unsafe);
}

TEST(SafeStateMap, IsUnsafeCoversUnsafeAndCrash) {
    const SafeStateMap map = make_map();
    EXPECT_FALSE(map.is_unsafe(from_ghz(3.0), Millivolts{-100.0}));
    EXPECT_TRUE(map.is_unsafe(from_ghz(3.0), Millivolts{-130.0}));
    EXPECT_TRUE(map.is_unsafe(from_ghz(3.0), Millivolts{-200.0}));
}

TEST(SafeStateMap, SafeLimitAppliesGuard) {
    const SafeStateMap map = make_map();
    EXPECT_DOUBLE_EQ(map.safe_limit(from_ghz(3.0), Millivolts{15.0}).value(), -105.0);
    EXPECT_DOUBLE_EQ(map.safe_limit(from_ghz(1.0), Millivolts{15.0}).value(), -235.0);
    // Guard larger than the onset magnitude clamps to zero.
    SafeStateMap shallow("t", Millivolts{-300.0});
    shallow.add({.freq = from_ghz(1.0), .onset = Millivolts{-10.0}, .crash = Millivolts{-20.0}});
    EXPECT_DOUBLE_EQ(shallow.safe_limit(from_ghz(1.0), Millivolts{15.0}).value(), 0.0);
}

TEST(SafeStateMap, MaximalSafeIsShallowestOnsetPlusGuard) {
    const SafeStateMap map = make_map();
    EXPECT_DOUBLE_EQ(map.maximal_safe_offset(Millivolts{15.0}).value(), -105.0);
    EXPECT_DOUBLE_EQ(map.maximal_safe_offset(Millivolts{0.0}).value(), -120.0);
}

TEST(SafeStateMap, MaximalSafeIgnoresFaultFreeRows) {
    SafeStateMap map("t", Millivolts{-300.0});
    map.add({.freq = from_ghz(0.5),
             .onset = Millivolts{0.0},
             .crash = Millivolts{-301.0},
             .fault_free = true});
    map.add({.freq = from_ghz(2.0), .onset = Millivolts{-150.0}, .crash = Millivolts{-170.0}});
    EXPECT_DOUBLE_EQ(map.maximal_safe_offset(Millivolts{10.0}).value(), -140.0);
}

TEST(SafeStateMap, MaxSafeFrequency) {
    const SafeStateMap map = make_map();
    // -100 (deepened by guard 10 -> -110) is safe at every row.
    EXPECT_DOUBLE_EQ(map.max_safe_frequency(Millivolts{-100.0}, Millivolts{10.0}).value(),
                     3000.0);
    // -150 - 10 = -160: unsafe at 3 GHz (onset -120), safe at 2 GHz.
    EXPECT_DOUBLE_EQ(map.max_safe_frequency(Millivolts{-150.0}, Millivolts{10.0}).value(),
                     2000.0);
    // Deeper than everything: falls back to the lowest row.
    EXPECT_DOUBLE_EQ(map.max_safe_frequency(Millivolts{-290.0}, Millivolts{10.0}).value(),
                     1000.0);
}

TEST(SafeStateMap, CsvRoundTrip) {
    const SafeStateMap map = make_map();
    const SafeStateMap restored =
        SafeStateMap::from_csv(map.to_csv(), "test-system", Millivolts{-300.0});
    ASSERT_EQ(restored.rows().size(), map.rows().size());
    for (std::size_t i = 0; i < map.rows().size(); ++i) {
        EXPECT_DOUBLE_EQ(restored.rows()[i].freq.value(), map.rows()[i].freq.value());
        EXPECT_DOUBLE_EQ(restored.rows()[i].onset.value(), map.rows()[i].onset.value());
        EXPECT_DOUBLE_EQ(restored.rows()[i].crash.value(), map.rows()[i].crash.value());
        EXPECT_EQ(restored.rows()[i].fault_free, map.rows()[i].fault_free);
    }
    EXPECT_EQ(map.classify(from_ghz(2.0), Millivolts{-210.0}),
              restored.classify(from_ghz(2.0), Millivolts{-210.0}));
}

TEST(SafeStateMap, CsvRejectsMalformedFields) {
    // Every field is parsed whole and must be finite: a NaN passes every
    // ordering check in add(), "3000x" is not 3000 MHz, and "2" is not a
    // fault_free flag.  The load_csv contract is ConfigError for all of
    // them, not std::invalid_argument or std::out_of_range.
    const std::string header = "freq_mhz,onset_mv,crash_mv,fault_free\n";
    const std::string good = "1000,-200,-220,0\n";
    EXPECT_NO_THROW((void)SafeStateMap::from_csv(header + good, "x", Millivolts{-300.0}));
    for (const char* row :
         {"nan,-200,-220,0\n", "2000,nan,-220,0\n", "2000,-200,nan,0\n", "2000,nan,nan,1\n",
          "inf,-200,-220,0\n", "2000,-inf,-220,0\n", "2000,-200,-inf,0\n",
          "-nan,-200,-220,0\n", "3000x,-200,-220,0\n", "2000,-200mV,-220,0\n",
          "2000,-200,-220 ,0\n", " 2000,-200,-220,0\n", "abc,-200,-220,0\n",
          "2000,,-220,0\n", "1e999,-200,-220,0\n", "2000,-1e999,-220,0\n",
          "2000,-200,-220,2\n", "2000,-200,-220,true\n", "2000,-200,-220,\n",
          "2000,-200,-220,01\n"}) {
        EXPECT_THROW((void)SafeStateMap::from_csv(header + good + row, "x", Millivolts{-300.0}),
                     ConfigError)
            << row;
        EXPECT_THROW((void)SafeStateMap::from_csv(header + row, "x", Millivolts{-300.0}),
                     ConfigError)
            << row;
    }
}

TEST(SafeStateMap, AddRejectsNonFiniteFields) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    SafeStateMap map("t", Millivolts{-300.0});
    map.add({.freq = from_ghz(1.0), .onset = Millivolts{-200.0}, .crash = Millivolts{-220.0}});
    for (const double bad : {nan, inf, -inf}) {
        EXPECT_THROW(map.add({.freq = Megahertz{bad},
                              .onset = Millivolts{-200.0},
                              .crash = Millivolts{-220.0}}),
                     ConfigError);
        EXPECT_THROW(map.add({.freq = from_ghz(2.0),
                              .onset = Millivolts{bad},
                              .crash = Millivolts{-220.0}}),
                     ConfigError);
        EXPECT_THROW(map.add({.freq = from_ghz(2.0),
                              .onset = Millivolts{-200.0},
                              .crash = Millivolts{bad},
                              .fault_free = true}),
                     ConfigError);
    }
    EXPECT_EQ(map.rows().size(), 1u);
}

// The linear lookups the map made before it searched its rows, kept here
// as the reference the binary search must match bit for bit.
const FreqCharacterization& linear_nearest_row(const SafeStateMap& map, Megahertz f) {
    const FreqCharacterization* best = &map.rows().front();
    double best_d = std::abs(f.value() - best->freq.value());
    for (const auto& row : map.rows()) {
        const double d = std::abs(f.value() - row.freq.value());
        if (d < best_d) {
            best = &row;
            best_d = d;
        }
    }
    return *best;
}

StateClass linear_classify(const SafeStateMap& map, Megahertz f, Millivolts offset) {
    const FreqCharacterization& row = linear_nearest_row(map, f);
    if (row.fault_free)
        return offset >= map.sweep_floor() ? StateClass::Safe : StateClass::Unsafe;
    if (offset <= row.crash) return StateClass::Crash;
    if (offset <= row.onset) return StateClass::Unsafe;
    return StateClass::Safe;
}

Millivolts linear_safe_limit(const SafeStateMap& map, Megahertz f, Millivolts guard) {
    const FreqCharacterization& row = linear_nearest_row(map, f);
    const Millivolts edge = row.fault_free ? map.sweep_floor() : row.onset;
    return std::min(Millivolts{0.0}, edge + guard);
}

Megahertz linear_max_safe_frequency(const SafeStateMap& map, Millivolts offset,
                                    Millivolts guard) {
    const Millivolts probe = offset - guard;
    Megahertz best = map.rows().front().freq;
    bool found = false;
    for (const auto& row : map.rows()) {
        if (linear_classify(map, row.freq, probe) == StateClass::Safe) {
            best = found ? std::max(best, row.freq) : row.freq;
            found = true;
        }
    }
    return found ? best : map.rows().front().freq;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A seeded map of `n` rows, about one in five fault-free.  Even seeds
/// put the rows on whole megahertz, so the midpoint of two neighbours is
/// exact and ties; odd seeds use arbitrary doubles.
SafeStateMap random_map(Rng& rng, std::size_t n, bool whole_mhz) {
    SafeStateMap map("random", Millivolts{-300.0});
    double freq = 400.0 + (whole_mhz ? static_cast<double>(rng.uniform_below(200))
                                     : rng.uniform(0.0, 200.0));
    for (std::size_t i = 0; i < n; ++i) {
        const bool fault_free = rng.uniform() < 0.2;
        const double onset = rng.uniform(-280.0, -20.0);
        map.add({.freq = Megahertz{freq},
                 .onset = Millivolts{fault_free ? 0.0 : onset},
                 .crash = Millivolts{fault_free ? -301.0 : onset - rng.uniform(0.0, 40.0)},
                 .fault_free = fault_free});
        freq += whole_mhz ? static_cast<double>(1 + rng.uniform_below(300))
                          : rng.uniform(1e-9, 300.0);
    }
    return map;
}

TEST(SafeStateMap, LookupsMatchTheLinearScanBitForBit) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::size_t ties = 0;
    for (std::uint64_t seed = 1; seed <= 256; ++seed) {
        Rng rng(seed);
        const std::size_t n = 1 + (seed - 1) % 64;
        const SafeStateMap map = random_map(rng, n, seed % 2 == 0);
        const auto& rows = map.rows();

        std::vector<double> freqs = {nan, -nan, inf, -inf, 0.0, -1.0, 1e-300, 1e20, -1e20,
                                     1e300, std::numeric_limits<double>::max(),
                                     rows.front().freq.value() - 1.0,
                                     rows.back().freq.value() + 1.0,
                                     rows.back().freq.value() * 4.0};
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const double f = rows[i].freq.value();
            freqs.insert(freqs.end(), {f, std::nextafter(f, -inf), std::nextafter(f, inf)});
            if (i + 1 < rows.size()) {
                const double next = rows[i + 1].freq.value();
                const double mid = f + (next - f) / 2.0;
                freqs.insert(freqs.end(), {mid, std::nextafter(mid, -inf),
                                           std::nextafter(mid, inf), rng.uniform(f, next)});
                if (mid - f == next - mid) ++ties;
            }
        }
        std::vector<double> offsets = {0.0, -1.0, -299.0, -300.0, -301.0, -1000.0};
        for (const auto& row : rows)
            offsets.insert(offsets.end(),
                           {row.onset.value(), row.onset.value() + 0.5, row.crash.value(),
                            row.crash.value() - 0.5, rng.uniform(-320.0, 0.0)});
        const Millivolts guards[] = {Millivolts{0.0}, Millivolts{10.0}, Millivolts{15.0}};

        for (const double fv : freqs) {
            const Megahertz f{fv};
            ASSERT_EQ(&map.nearest_row(f), &linear_nearest_row(map, f))
                << "seed " << seed << ", f " << fv;
            for (const double ov : offsets)
                ASSERT_EQ(map.classify(f, Millivolts{ov}),
                          linear_classify(map, f, Millivolts{ov}))
                    << "seed " << seed << ", f " << fv << ", offset " << ov;
            for (const Millivolts guard : guards)
                ASSERT_EQ(bits(map.safe_limit(f, guard).value()),
                          bits(linear_safe_limit(map, f, guard).value()))
                    << "seed " << seed << ", f " << fv;
        }
        for (const double ov : offsets)
            for (const Millivolts guard : guards)
                ASSERT_EQ(bits(map.max_safe_frequency(Millivolts{ov}, guard).value()),
                          bits(linear_max_safe_frequency(map, Millivolts{ov}, guard).value()))
                    << "seed " << seed << ", offset " << ov;
    }
    // The whole-megahertz maps put real ties between neighbours.
    EXPECT_GT(ties, 1000u);
}

TEST(SafeStateMap, TiesAndNonFiniteFrequenciesPickTheLowerRow) {
    const SafeStateMap map = make_map();
    EXPECT_EQ(map.nearest_row(Megahertz{1500.0}).freq, from_ghz(1.0));
    EXPECT_EQ(map.nearest_row(Megahertz{2500.0}).freq, from_ghz(2.0));
    EXPECT_EQ(map.nearest_row(Megahertz{std::nextafter(2500.0, 3000.0)}).freq, from_ghz(3.0));
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(map.nearest_row(Megahertz{inf}).freq, from_ghz(1.0));
    EXPECT_EQ(map.nearest_row(Megahertz{-inf}).freq, from_ghz(1.0));
    EXPECT_EQ(map.nearest_row(Megahertz{std::numeric_limits<double>::quiet_NaN()}).freq,
              from_ghz(1.0));
    // So far above the rows that every distance rounds to the same value.
    EXPECT_EQ(map.nearest_row(Megahertz{1e20}).freq, from_ghz(1.0));
    EXPECT_EQ(map.nearest_row(Megahertz{5000.0}).freq, from_ghz(3.0));
}

TEST(SafeStateMap, CsvRejectsWrongHeader) {
    EXPECT_THROW((void)SafeStateMap::from_csv("a,b\n1,2\n", "x", Millivolts{-300.0}),
                 ConfigError);
}

TEST(SafeStateMap, ValidatesConstruction) {
    EXPECT_THROW(SafeStateMap("t", Millivolts{0.0}), ConfigError);
    EXPECT_THROW(SafeStateMap("t", Millivolts{10.0}), ConfigError);

    SafeStateMap map("t", Millivolts{-300.0});
    map.add({.freq = from_ghz(2.0), .onset = Millivolts{-100.0}, .crash = Millivolts{-120.0}});
    // Out-of-order rows rejected.
    EXPECT_THROW(map.add({.freq = from_ghz(1.0),
                          .onset = Millivolts{-200.0},
                          .crash = Millivolts{-210.0}}),
                 ConfigError);
    // Crash shallower than onset rejected.
    EXPECT_THROW(map.add({.freq = from_ghz(3.0),
                          .onset = Millivolts{-100.0},
                          .crash = Millivolts{-90.0}}),
                 ConfigError);
}

TEST(SafeStateMap, EmptyMapQueriesThrow) {
    const SafeStateMap map("t", Millivolts{-300.0});
    EXPECT_THROW((void)map.classify(from_ghz(1.0), Millivolts{-10.0}), ConfigError);
    EXPECT_THROW((void)map.maximal_safe_offset(kDefaultGuardBand), ConfigError);
    EXPECT_THROW((void)map.max_safe_frequency(Millivolts{-10.0}, kDefaultGuardBand), ConfigError);
}

TEST(SafeStateMap, StateClassNames) {
    EXPECT_STREQ(to_string(StateClass::Safe), "safe");
    EXPECT_STREQ(to_string(StateClass::Unsafe), "unsafe");
    EXPECT_STREQ(to_string(StateClass::Crash), "crash");
}

}  // namespace
}  // namespace pv::plugvolt
