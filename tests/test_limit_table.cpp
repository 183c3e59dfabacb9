// LimitTable: the compiled safety judgment must equal the SafeStateMap
// queries it replaces, bit for bit, over the whole domain a poll reads —
// every ratio byte x every 11-bit 0x150 offset code, and every 16-bit
// measured-voltage field for the rail watch.
#include "plugvolt/limit_table.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace pv::plugvolt {
namespace {

constexpr RestorePolicy kPolicies[] = {RestorePolicy::ClampToSafeLimit,
                                       RestorePolicy::ClampToMaximalSafe,
                                       RestorePolicy::RestoreZero};
constexpr double kGuardsMv[] = {0.0, 5.0, 15.0};

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The offset a poll decodes from 0x150 offset code `code`.
Millivolts decoded(int code) {
    return sim::decode_offset((static_cast<std::uint64_t>(code) & 0x7FF) << 21)->offset;
}

/// Fault-free rows, rows off the 100 MHz grid, a ratio that ties two
/// rows (2 100 MHz), boundaries on the offset-code grid and a row above
/// the last ratio byte's 25 500 MHz.
SafeStateMap hand_built_map() {
    SafeStateMap map("hand-built", Millivolts{-300.0});
    map.add({.freq = Megahertz{800.0}, .onset = Millivolts{0.0}, .crash = Millivolts{-300.0},
             .fault_free = true});
    map.add({.freq = Megahertz{1100.0}, .onset = Millivolts{-250.0},
             .crash = Millivolts{-260.0}});
    map.add({.freq = Megahertz{1150.5}, .onset = Millivolts{-240.0},
             .crash = Millivolts{-255.0}});
    map.add({.freq = Megahertz{2000.0}, .onset = decoded(-100), .crash = decoded(-120)});
    map.add({.freq = Megahertz{2200.0}, .onset = Millivolts{0.0}, .crash = Millivolts{-300.0},
             .fault_free = true});
    map.add({.freq = Megahertz{2400.0}, .onset = Millivolts{-120.0},
             .crash = Millivolts{-121.0}});
    map.add({.freq = Megahertz{4000.0}, .onset = Millivolts{-60.0},
             .crash = Millivolts{-100.0}});
    map.add({.freq = Megahertz{30000.0}, .onset = Millivolts{-10.0},
             .crash = Millivolts{-20.0}});
    return map;
}

/// The four maps the differential covers, each with the profile whose
/// frequency range and fused VF table the rail watch reads.
struct Case {
    SafeStateMap map;
    sim::CpuProfile profile;
};

std::vector<Case> cases() {
    std::vector<Case> out;
    for (const sim::CpuProfile& profile : sim::paper_profiles())
        out.push_back({test::cached_map(profile), profile});
    out.push_back({hand_built_map(), sim::cometlake_i7_10510u()});
    return out;
}

/// Counts mismatches and keeps the first one's description.
struct Mismatches {
    std::uint64_t count = 0;
    std::string first;

    /// `what` describes the case; it is only called on a mismatch.
    template <class What>
    void check(bool equal, const What& what) {
        if (equal) return;
        if (count++ == 0) first = what();
    }
};

std::string where(const SafeStateMap& map, double guard, RestorePolicy policy, int ratio,
                  int code) {
    std::ostringstream out;
    out << map.system_name() << " guard " << guard << " policy "
        << static_cast<int>(policy) << " ratio " << ratio << " code " << code;
    return out.str();
}

TEST(LimitTable, PollDomainEqualsTheMapQueriesBitForBit) {
    for (const Case& c : cases()) {
        const SafeStateMap& map = c.map;
        for (const double guard_mv : kGuardsMv) {
            const Millivolts guard{guard_mv};
            // The frequency lever depends on the offset alone.
            const LimitTable lever(map, guard, RestorePolicy::ClampToSafeLimit);
            Mismatches lever_diff;
            for (int code = -1024; code <= 1023; ++code)
                lever_diff.check(same_bits(lever.frequency_limit(decoded(code)).value(),
                                           map.max_safe_frequency(decoded(code), guard).value()),
                                 [&] {
                                     return where(map, guard_mv,
                                                  RestorePolicy::ClampToSafeLimit, -1, code);
                                 });
            EXPECT_EQ(lever_diff.count, 0u) << "frequency lever, first at " << lever_diff.first;

            for (const RestorePolicy policy : kPolicies) {
                const LimitTable table(map, guard, policy);
                const Millivolts maximal = map.maximal_safe_offset(guard);
                EXPECT_TRUE(same_bits(table.maximal_safe().value(), maximal.value()));
                Mismatches diff;
                for (int ratio = 0; ratio < 256; ++ratio) {
                    const Megahertz f{static_cast<double>(ratio) * 100.0};
                    // The poll's restore switch, as the module wrote it.
                    Millivolts restore{0.0};
                    switch (policy) {
                        case RestorePolicy::RestoreZero: restore = Millivolts{0.0}; break;
                        case RestorePolicy::ClampToSafeLimit:
                            restore = map.safe_limit(f, guard);
                            break;
                        case RestorePolicy::ClampToMaximalSafe: restore = maximal; break;
                    }
                    const auto r = static_cast<std::uint8_t>(ratio);
                    diff.check(same_bits(table.restore_target(r).value(), restore.value()),
                               [&] { return where(map, guard_mv, policy, ratio, 0) + " restore"; });
                    for (int code = -1024; code <= 1023; ++code) {
                        const Millivolts commanded = decoded(code);
                        const bool unsafe =
                            policy == RestorePolicy::ClampToMaximalSafe
                                ? commanded < maximal
                                : map.is_unsafe(f, commanded - guard + Millivolts{1.0});
                        diff.check(table.detects(r, commanded) == unsafe,
                                   [&] {
                                       return where(map, guard_mv, policy, ratio, code) +
                                              " detection";
                                   });
                    }
                }
                EXPECT_EQ(diff.count, 0u) << "first at " << diff.first;
            }
        }
    }
}

TEST(LimitTable, AuditorClassEqualsTheUnguardedMapClass) {
    // The raw class carries neither the guard nor the hysteresis, so
    // every table of a map answers it the same.
    for (const Case& c : cases()) {
        for (const double guard_mv : kGuardsMv) {
            const LimitTable table(c.map, Millivolts{guard_mv}, RestorePolicy::RestoreZero);
            Mismatches diff;
            for (int ratio = 0; ratio < 256; ++ratio) {
                const Megahertz f{static_cast<double>(ratio) * 100.0};
                for (int code = -1024; code <= 1023; ++code)
                    diff.check(table.classify(static_cast<std::uint8_t>(ratio), decoded(code)) ==
                                   c.map.classify(f, decoded(code)),
                               [&] {
                                   return where(c.map, guard_mv, RestorePolicy::RestoreZero,
                                                ratio, code);
                               });
            }
            EXPECT_EQ(diff.count, 0u) << "first at " << diff.first;
        }
    }
}

TEST(LimitTable, RailWatchLeverEqualsTheMapOverEveryMeasuredVoltage) {
    // The rail watch turns 0x198 bits 47:32 into an offset against the
    // fused VF table at the effective ratio, exactly as the poll does.
    for (const Case& c : cases()) {
        const sim::VfCurve nominal = c.profile.vf_curve();
        const auto lo = static_cast<int>(c.profile.freq_min.value() / 100.0 + 0.5);
        const auto hi = static_cast<int>(c.profile.freq_max.value() / 100.0 + 0.5);
        for (const double guard_mv : kGuardsMv) {
            const Millivolts guard{guard_mv};
            const LimitTable table(c.map, guard, RestorePolicy::ClampToSafeLimit);
            Mismatches diff;
            for (int ratio = lo; ratio <= hi; ++ratio) {
                const Millivolts rail =
                    nominal.nominal(Megahertz{static_cast<double>(ratio) * 100.0});
                for (std::uint32_t field = 0; field <= 0xFFFF; ++field) {
                    const double measured_v = static_cast<double>(field) / 8192.0 * 1000.0;
                    const Millivolts offset = Millivolts{measured_v} - rail;
                    diff.check(same_bits(table.frequency_limit(offset).value(),
                                         c.map.max_safe_frequency(offset, guard).value()),
                               [&] {
                                   return where(c.map, guard_mv,
                                                RestorePolicy::ClampToSafeLimit, ratio,
                                                static_cast<int>(field));
                               });
                }
            }
            EXPECT_EQ(diff.count, 0u) << "first at " << diff.first;
        }
    }
}

TEST(LimitTable, RefusesAGuardThatDisablesDetection) {
    const SafeStateMap& map = test::comet_map();
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -20.0})
        EXPECT_THROW(LimitTable(map, Millivolts{bad}, RestorePolicy::ClampToSafeLimit),
                     ConfigError)
            << bad;
    EXPECT_NO_THROW(LimitTable(map, Millivolts{0.0}, RestorePolicy::ClampToSafeLimit));
    EXPECT_THROW(LimitTable(SafeStateMap("empty", Millivolts{-300.0}), kDefaultGuardBand,
                            RestorePolicy::ClampToSafeLimit),
                 ConfigError);
}

}  // namespace
}  // namespace pv::plugvolt
