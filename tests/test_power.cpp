// Package energy model and RAPL surface.
#include "sim/power.hpp"

#include <gtest/gtest.h>

#include "os/cpupower.hpp"
#include "os/kernel.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"
#include "sim/ocm.hpp"
#include "util/error.hpp"

namespace pv::sim {
namespace {

TEST(PowerModel, DynamicEnergyScalesWithVSquared) {
    PowerModel model({.epi_nj_per_v2 = 1.0, .leak_mw_per_v2 = 0.0});
    model.on_retire(1'000'000, Millivolts{1000.0});
    EXPECT_NEAR(model.dynamic_joules(), 1e-3, 1e-12);  // 1e6 * 1 nJ * 1 V^2
    PowerModel half({.epi_nj_per_v2 = 1.0, .leak_mw_per_v2 = 0.0});
    half.on_retire(1'000'000, Millivolts{500.0});
    EXPECT_NEAR(half.dynamic_joules(), 0.25e-3, 1e-12);  // quadratic
}

TEST(PowerModel, LeakageIntegratesExactlyOverRamps) {
    PowerModel model({.epi_nj_per_v2 = 0.0, .leak_mw_per_v2 = 1000.0});  // 1 W at 1 V
    // Constant 1 V for 1 ms -> 1 mJ.
    model.integrate_leakage(Picoseconds{0}, milliseconds(1.0), Millivolts{1000.0},
                            Millivolts{1000.0});
    EXPECT_NEAR(model.leakage_joules(), 1e-3, 1e-12);
    // Linear ramp 0 -> 1 V over 3 ms: integral of v^2 = 1/3 -> 1 mJ.
    PowerModel ramp({.epi_nj_per_v2 = 0.0, .leak_mw_per_v2 = 1000.0});
    ramp.integrate_leakage(Picoseconds{0}, milliseconds(3.0), Millivolts{0.0},
                           Millivolts{1000.0});
    EXPECT_NEAR(ramp.leakage_joules(), 1e-3, 1e-9);
}

TEST(PowerModel, RejectsBadInput) {
    EXPECT_THROW(PowerModel({.epi_nj_per_v2 = -1.0, .leak_mw_per_v2 = 0.0}), ConfigError);
    PowerModel model({});
    EXPECT_THROW(model.integrate_leakage(Picoseconds{10}, Picoseconds{5}, Millivolts{1.0},
                                         Millivolts{1.0}),
                 SimError);
}

TEST(PowerModel, RaplUnitsAndWraparound) {
    EXPECT_EQ((PowerModel::rapl_power_unit() >> 8) & 0x1F, 14u);
    PowerModel model({.epi_nj_per_v2 = 0.0, .leak_mw_per_v2 = 1000.0});
    model.integrate_leakage(Picoseconds{0}, milliseconds(1.0), Millivolts{1000.0},
                            Millivolts{1000.0});
    // 1 mJ = ~16.384 units of 2^-14 J.
    EXPECT_EQ(model.rapl_energy_status(), 16u);
    model.reset();
    EXPECT_EQ(model.rapl_energy_status(), 0u);
}

TEST(MachinePower, LeakageAccumulatesWithTime) {
    Machine m(cometlake_i7_10510u(), 1);
    const double before = m.power().total_joules();
    m.advance(milliseconds(10.0));
    const double after = m.power().total_joules();
    EXPECT_GT(after, before);
    // Plausibility: a ~0.8 V idle package leaks well under 10 W here.
    EXPECT_LT((after - before) / 10e-3, 10.0);
}

TEST(MachinePower, RetiredWorkCostsDynamicEnergy) {
    Machine m(cometlake_i7_10510u(), 2);
    const double leak_only = [&] {
        Machine idle(cometlake_i7_10510u(), 2);
        idle.advance(milliseconds(1.0));
        return idle.power().total_joules();
    }();
    (void)m.run_batch(0, InstrClass::Alu, 1'800'000);  // ~1 ms at 1.8 GHz
    EXPECT_GT(m.power().dynamic_joules(), 0.0);
    EXPECT_GT(m.power().total_joules(), leak_only);
}

TEST(MachinePower, UndervoltingSavesEnergy) {
    auto energy_for = [](Millivolts offset) {
        Machine m(cometlake_i7_10510u(), 3);
        os::Kernel k(m);
        os::Cpupower cpupower(m);
        cpupower.frequency_set(from_ghz(1.2));
        m.advance_to(m.rail_settle_time());
        if (offset < Millivolts{0.0}) {
            m.write_msr(0, kMsrOcMailbox, encode_offset(offset, VoltagePlane::Core));
            m.advance_to(m.rail_settle_time());
        }
        const double before = m.power().total_joules();
        (void)m.run_batch(0, InstrClass::Alu, 6'000'000);  // 5 ms of work
        return m.power().total_joules() - before;
    };
    const double nominal = energy_for(Millivolts{0.0});
    const double undervolted = energy_for(Millivolts{-150.0});
    EXPECT_LT(undervolted, nominal);
    // At 741 mV nominal, -150 mV is a ~20% voltage cut -> ~36% energy cut.
    const double savings = (nominal - undervolted) / nominal;
    EXPECT_GT(savings, 0.25);
    EXPECT_LT(savings, 0.45);
}

TEST(MachinePower, RaplMsrsReadable) {
    Machine m(cometlake_i7_10510u(), 4);
    EXPECT_EQ((m.read_msr(0, kMsrRaplPowerUnit) >> 8) & 0x1F, 14u);
    const std::uint64_t e0 = m.read_msr(0, kMsrPkgEnergyStatus);
    m.advance(milliseconds(50.0));
    const std::uint64_t e1 = m.read_msr(0, kMsrPkgEnergyStatus);
    EXPECT_GT(e1, e0) << "the energy counter ticks with leakage alone";
}

TEST(MachinePower, RebootClearsCounter) {
    Machine m(cometlake_i7_10510u(), 5);
    m.advance(milliseconds(50.0));
    ASSERT_GT(m.read_msr(0, kMsrPkgEnergyStatus), 0u);
    m.crash("test");
    m.reboot();
    // Only the boot delay's leakage has accumulated since.
    EXPECT_LT(m.power().total_joules(), 0.2);
}

}  // namespace
}  // namespace pv::sim
