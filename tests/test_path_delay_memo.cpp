// Exactness of the simulator's path-delay memo.
//
// Machine evaluates its fault physics through PathDelayMemo, a
// direct-mapped cache of TimingModel::path_delay_ps(v) keyed on the bit
// pattern of v, and single ops on settled rails through per-class
// certificates built on it.  These tests hold both to bitwise equality
// with direct evaluation: across slot collisions and voltages one ulp
// apart, over random operating points (thresholds included), after
// writes that bypass Machine, and across reset/restore_snapshot, which
// leave the caches in place.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/cpu_profile.hpp"
#include "util/rng.hpp"

namespace pv::sim {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(PathDelayMemo, CollidingAndOneUlpApartVoltagesReturnExactDelays) {
    const CpuProfile profile = cometlake_i7_10510u();
    const TimingModel timing(profile.timing);
    PathDelayMemo memo(timing);

    // 4096 distinct voltages in 1024 slots: by pigeonhole many share a
    // slot, and every voltage sits next to its one-ulp neighbours.
    std::vector<double> volts;
    const double vth = profile.timing.threshold_voltage.value();
    for (double v : {-0.0, 0.0, vth, 450.0, 700.0, 812.5, 1000.0}) {
        volts.push_back(v);
        volts.push_back(std::nextafter(v, -INFINITY));
        volts.push_back(std::nextafter(v, INFINITY));
    }
    Rng rng(0x3E30);
    while (volts.size() < 4096) {
        const double v = rng.uniform(vth - 50.0, 1300.0);
        volts.push_back(v);
        volts.push_back(std::nextafter(v, INFINITY));
    }
    // Three passes: the first fills, the later ones mix hits with
    // evictions by colliding and adjacent keys.
    for (int pass = 0; pass < 3; ++pass) {
        for (const double v : volts) {
            ASSERT_EQ(bits(memo.get(Millivolts{v})),
                      bits(timing.path_delay_ps(Millivolts{v})))
                << "v = " << v << " mV, pass " << pass;
        }
    }
    // Alternating one-ulp neighbours: each lookup still returns its own
    // voltage's delay, never the neighbour's.
    const double v = 823.0;
    const double up = std::nextafter(v, INFINITY);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(bits(memo.get(Millivolts{v})), bits(timing.path_delay_ps(Millivolts{v})));
        EXPECT_EQ(bits(memo.get(Millivolts{up})), bits(timing.path_delay_ps(Millivolts{up})));
    }
}

/// The machine's memoized fault probability and crash check against a
/// direct FaultModel evaluation at the machine's current state.  Returns
/// whether the machine crashed.
bool expect_matches_direct(Machine& m, const char* where) {
    const FaultModel& fm = m.fault_model();
    const double scale = m.thermal().delay_scale();
    for (const InstrClass c : kAllInstrClasses) {
        const VoltagePlane plane = c == InstrClass::Load ? VoltagePlane::Cache : VoltagePlane::Core;
        const Millivolts v = m.plane_voltage(plane);
        const double direct = fm.fault_probability(m.core(0).frequency(), v, c, scale);
        EXPECT_EQ(bits(m.fault_probability(0, c)), bits(direct))
            << where << ": " << to_string(c) << " at " << v.value() << " mV, scale " << scale;
        EXPECT_EQ(bits(m.fault_probability(0, c)), bits(direct)) << where << " (memo hit)";
        if (v <= m.profile().timing.threshold_voltage) {
            EXPECT_EQ(direct, 1.0) << where;
        }
    }
    const Megahertz f = m.max_active_frequency();
    const Millivolts v_core = m.plane_voltage(VoltagePlane::Core);
    const bool crash =
        fm.would_crash(f, v_core, scale) ||
        fm.would_crash(f, m.plane_voltage(VoltagePlane::Cache),
                       scale * path_factor(InstrClass::Load));
    if (v_core <= m.profile().timing.threshold_voltage) {
        EXPECT_TRUE(crash) << where;
    }
    m.advance(Picoseconds{0});  // the event-boundary crash check
    EXPECT_EQ(m.crashed(), crash) << where << ": core " << v_core.value() << " mV";
    return crash;
}

/// Whether the machine crashes at its current state, by direct
/// FaultModel calls (the verdict Machine's crash check must reach).
bool direct_crash(const Machine& m) {
    const FaultModel& fm = m.fault_model();
    const Megahertz f = m.max_active_frequency();
    const double scale = m.thermal().delay_scale();
    return fm.would_crash(f, m.plane_voltage(VoltagePlane::Core), scale) ||
           fm.would_crash(f, m.plane_voltage(VoltagePlane::Cache),
                          scale * path_factor(InstrClass::Load));
}

/// One execute_op on core 0 against direct FaultModel calls.  `shadow`
/// replays the machine's RNG stream, so the op must fault exactly when
/// the replayed draw falls below the direct probability; after the op
/// the machine must have crashed exactly when the direct check says so.
/// Returns whether the op faulted.
bool expect_op_matches_direct(Machine& m, Rng& shadow, InstrClass c, const std::string& where) {
    EXPECT_FALSE(m.crashed()) << where;
    const VoltagePlane plane = c == InstrClass::Load ? VoltagePlane::Cache : VoltagePlane::Core;
    const double p = m.fault_model().fault_probability(
        m.core(0).frequency(), m.plane_voltage(plane), c, m.thermal().delay_scale());
    const bool draw_faults = shadow.uniform() < p;
    const bool faulted = m.execute_op(0, c);
    const bool crash = direct_crash(m);
    EXPECT_EQ(m.crashed(), crash) << where << ": p " << p;
    EXPECT_EQ(faulted, draw_faults && !crash) << where << ": p " << p;
    return faulted;
}

TEST(PathDelayMemo, MachinePhysicsMatchesDirectFaultModelBitwise) {
    const CpuProfile profile = cometlake_i7_10510u();
    Machine m(profile, 1);
    const std::vector<Megahertz> table = profile.frequency_table();
    const double vth = profile.timing.threshold_voltage.value();
    Rng rng(0xFA57);
    unsigned below_threshold = 0;
    unsigned crashes = 0;
    for (std::uint64_t point = 0; point < 600; ++point) {
        m.reset(point);  // also exercises the memo surviving reset()
        m.set_all_frequencies(table[rng.uniform_below(table.size())]);
        // Offsets from well below the threshold voltage to a small
        // overvolt, so p spans 0..1 and the crash check flips.
        const double base = m.package_voltage().value();
        const double core_mv = rng.uniform(vth - 40.0 - base, 20.0);
        const double cache_mv = rng.uniform(vth - 40.0 - base, 20.0);
        m.regulator().force(VoltagePlane::Core, Millivolts{core_mv});
        m.regulator().force(VoltagePlane::Cache, Millivolts{cache_mv});
        m.set_die_temperature(rng.uniform(0.0, 110.0));
        if (m.plane_voltage(VoltagePlane::Core).value() <= vth) ++below_threshold;
        if (expect_matches_direct(m, "random point")) ++crashes;
        if (::testing::Test::HasFailure()) return;  // one report, not 600
    }
    EXPECT_GT(below_threshold, 10u) << "the sample must reach the infinite-delay branch";
    EXPECT_GT(crashes, 10u);
    EXPECT_LT(crashes, 590u) << "the sample must also cover surviving points";

    // Single ops around the fault band, with a write that bypasses
    // Machine between two of them: the regulator written or forced
    // directly, or a core's frequency set on the Core.  The second op
    // must see the new state, whichever path it takes.
    const char* kinds[] = {"regulator().force", "regulator().write",
                           "regulator().write, settled", "core(i).set_frequency"};
    unsigned ops_checked = 0;
    unsigned faulted_ops = 0;
    unsigned crashed_ops = 0;
    for (std::uint64_t point = 0; point < 400; ++point) {
        m.reset(point);
        Rng shadow(point);  // the machine's RNG stream, replayed
        const Megahertz f = table[rng.uniform_below(table.size())];
        m.set_all_frequencies(f);
        m.advance_to(m.rail_settle_time());
        m.set_die_temperature(rng.uniform(20.0, 90.0));
        // Offsets from 1 mV past the crash edge to 6 mV short of it, so
        // p spans 0 .. ~0.8 and some ops end in a crash.
        const double edge = m.fault_model().crash_offset(f, m.thermal().delay_scale()).value();
        const auto band = [&] { return Millivolts{rng.uniform(edge - 1.0, edge + 6.0)}; };
        m.regulator().force(VoltagePlane::Core, band());
        m.regulator().force(VoltagePlane::Cache, band());
        m.advance(Picoseconds{0});
        if (m.crashed()) continue;
        const InstrClass classes[] = {InstrClass::Imul, InstrClass::Load, InstrClass::Alu};
        const auto any_class = [&] { return classes[rng.uniform_below(3)]; };
        expect_op_matches_direct(m, shadow, any_class(), "first op");
        if (m.crashed()) continue;

        const auto kind = static_cast<unsigned>(rng.uniform_below(4));
        const auto plane = rng.uniform_below(2) == 0 ? VoltagePlane::Core : VoltagePlane::Cache;
        const auto other = static_cast<unsigned>(1 + rng.uniform_below(m.core_count() - 1));
        switch (kind) {
            case 0: m.regulator().force(plane, band()); break;
            case 1: m.regulator().write(plane, band(), m.now()); break;
            case 2:
                m.regulator().write(plane, band(), m.now());
                m.advance_to(m.rail_settle_time());
                break;
            default:
                m.core(rng.uniform_below(2) == 0 ? 0 : other)
                    .set_frequency(table[rng.uniform_below(table.size())]);
                break;
        }
        if (m.crashed()) continue;
        const std::string where = std::string("op after ") + kinds[kind];
        for (int op = 0; op < 3 && !m.crashed(); ++op) {
            if (expect_op_matches_direct(m, shadow, any_class(), where)) ++faulted_ops;
            ++ops_checked;
        }
        if (m.crashed())
            ++crashed_ops;
        else
            expect_matches_direct(m, where.c_str());
        if (::testing::Test::HasFailure()) return;
    }
    // The sample must reach every verdict: clean ops, faulted ops and
    // ops that end in a crash.
    EXPECT_GT(ops_checked, 600u);
    EXPECT_GT(faulted_ops, 40u);
    EXPECT_GT(crashed_ops, 15u);

    // Exactly at the threshold voltage: infinite delay, p = 1, crash.
    m.reset(7);
    const double base = m.package_voltage().value();
    m.regulator().force(VoltagePlane::Core, Millivolts{vth - base});
    ASSERT_LE(m.plane_voltage(VoltagePlane::Core).value(), vth);
    EXPECT_TRUE(expect_matches_direct(m, "at threshold"));
    EXPECT_EQ(m.fault_probability(0, InstrClass::Imul), 1.0);
}

TEST(PathDelayMemo, ResetAndSnapshotRestoreLeaveMemoizedValuesCorrect) {
    Machine m(cometlake_i7_10510u(), 3);
    m.set_all_frequencies(from_ghz(2.0));
    m.regulator().force(VoltagePlane::Core, Millivolts{-120.0});
    m.set_die_temperature(55.0);
    const Machine::Snapshot snap = m.capture_snapshot();
    const double p_snap = m.fault_probability(0, InstrClass::Imul);
    expect_matches_direct(m, "before snapshot restore");

    // Populate the memo with other voltages, then go back.
    for (double mv = -200.0; mv <= 0.0; mv += 0.37) {
        m.regulator().force(VoltagePlane::Core, Millivolts{mv});
        (void)m.fault_probability(0, InstrClass::Imul);
    }
    m.restore_snapshot(snap, 3);
    EXPECT_EQ(bits(m.fault_probability(0, InstrClass::Imul)), bits(p_snap));
    expect_matches_direct(m, "after restore_snapshot");

    m.reset(3);
    EXPECT_FALSE(expect_matches_direct(m, "after reset"));
}

}  // namespace
}  // namespace pv::sim
