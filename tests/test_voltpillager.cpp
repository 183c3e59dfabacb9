// VoltPillager (hardware SVID injection) and the rail watchdog.
#include "attacks/voltpillager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "os/cpupower.hpp"
#include "util/error.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"

namespace pv::attack {
namespace {

TEST(VoltPillager, InjectionLeavesNoMailboxTrace) {
    sim::Machine m(sim::cometlake_i7_10510u(), 401);
    m.regulator().write(sim::VoltagePlane::Core, Millivolts{-200.0}, m.now());
    m.advance(milliseconds(1.0));
    // The rail is physically deep...
    EXPECT_NEAR(m.applied_offset(sim::VoltagePlane::Core).value(), -200.0, 1.0);
    // ...but the mailbox reads back clean.
    const auto req = sim::decode_offset(m.read_msr(0, sim::kMsrOcMailbox));
    ASSERT_TRUE(req.has_value());
    EXPECT_DOUBLE_EQ(req->offset.value(), 0.0);
}

TEST(VoltPillager, WeaponizesOnUnprotectedMachine) {
    sim::Machine m(sim::cometlake_i7_10510u(), 402);
    os::Kernel kernel(m);
    VoltPillager atk;
    const AttackResult r = atk.run(kernel);
    EXPECT_TRUE(r.weaponized);
    EXPECT_NE(r.weaponization.find("invisible to MSR 0x150"), std::string::npos);
}

TEST(VoltPillager, DefeatsVendorWrmsrDeployments) {
    // The honest boundary: write-ignore microcode and the clamp MSR hook
    // wrmsr — a bus interposer never executes one.  (This mirrors how
    // the real VoltPillager defeated Intel's Plundervolt fixes.)
    for (const auto level :
         {plugvolt::DeploymentLevel::Microcode, plugvolt::DeploymentLevel::HardwareMsr}) {
        sim::Machine m(sim::cometlake_i7_10510u(), 403);
        os::Kernel kernel(m);
        plugvolt::Protector protector(kernel, test::comet_map());
        protector.deploy(level);
        VoltPillager atk;
        const AttackResult r = atk.run(kernel);
        EXPECT_TRUE(r.weaponized) << plugvolt::to_string(level);
    }
}

TEST(VoltPillager, DefeatsPollingWithoutRailWatch) {
    sim::Machine m(sim::cometlake_i7_10510u(), 404);
    os::Kernel kernel(m);
    plugvolt::PollingConfig config;  // watchdog off: the paper's module
    auto module = std::make_shared<plugvolt::PollingModule>(test::comet_map(), config);
    kernel.load_module(module);
    VoltPillager atk;
    const AttackResult r = atk.run(kernel);
    EXPECT_TRUE(r.weaponized) << "commanded-state polling is blind to the bus";
    EXPECT_EQ(module->metrics().detections, 0u);
}

TEST(VoltPillager, RailWatchdogClampsFrequencyAndStopsFaults) {
    sim::Machine m(sim::cometlake_i7_10510u(), 405);
    os::Kernel kernel(m);
    plugvolt::Protector protector(kernel, test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);  // watchdog on by default
    VoltPillager atk;
    const AttackResult r = atk.run(kernel);
    EXPECT_FALSE(r.weaponized);
    EXPECT_EQ(r.faults_observed, 0u);
    EXPECT_GE(protector.polling_module()->metrics().rail_watch_detections, 1u);
    EXPECT_GE(protector.polling_module()->metrics().freq_drops, 1u);
    // The machine survives in a degraded (frequency-clamped) state.
    EXPECT_FALSE(m.crashed());
}

TEST(VoltPillager, WatchdogDoesNotFireOnBenignCommands) {
    sim::Machine m(sim::cometlake_i7_10510u(), 406);
    os::Kernel kernel(m);
    plugvolt::Protector protector(kernel, test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);

    os::Cpupower cpupower(m);
    // Benign life: frequency changes and safe undervolts through the
    // mailbox; the residual check must stay silent (blanking covers the
    // legitimate settling transients).
    cpupower.frequency_set(from_ghz(1.2));
    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(Millivolts{-150.0},
                                                sim::VoltagePlane::Core));
    m.advance(milliseconds(3.0));
    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(Millivolts{0.0}, sim::VoltagePlane::Core));
    m.advance(milliseconds(3.0));
    cpupower.frequency_set(m.profile().freq_max);
    m.advance(milliseconds(3.0));

    EXPECT_EQ(protector.polling_module()->metrics().rail_watch_detections, 0u);
    EXPECT_DOUBLE_EQ(m.core(0).frequency().value(), m.profile().freq_max.value());
}

TEST(VoltPillager, WatchdogRequiresVfTable) {
    plugvolt::PollingConfig config;
    config.watch_measured_rail = true;  // but no nominal_rail
    EXPECT_THROW(plugvolt::PollingModule(test::comet_map(), config), pv::ConfigError);
}

}  // namespace
}  // namespace pv::attack
