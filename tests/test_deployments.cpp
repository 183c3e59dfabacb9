// Sec. 5 deployment tests: microcode write-ignore, hardware clamp MSR,
// the Protector facade and the turnaround decomposition.
#include <gtest/gtest.h>

#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace pv::plugvolt {
namespace {

TEST(MicrocodeGuard, IgnoresWritesPastMaximalSafe) {
    test::MachineRig rig(41);
    sim::Machine& machine = rig.machine;
    MicrocodeGuard guard(machine, Millivolts{-80.0});
    guard.install();
    EXPECT_TRUE(guard.installed());

    EXPECT_FALSE(machine.write_msr(
        0, sim::kMsrOcMailbox, sim::encode_offset(Millivolts{-150.0}, sim::VoltagePlane::Core)));
    EXPECT_EQ(guard.ignored_writes(), 1u);
    machine.advance(milliseconds(1.0));
    EXPECT_DOUBLE_EQ(machine.applied_offset(sim::VoltagePlane::Core).value(), 0.0);
}

TEST(MicrocodeGuard, AllowsSafeWrites) {
    test::MachineRig rig(42);
    sim::Machine& machine = rig.machine;
    MicrocodeGuard guard(machine, Millivolts{-80.0});
    guard.install();
    EXPECT_TRUE(machine.write_msr(
        0, sim::kMsrOcMailbox, sim::encode_offset(Millivolts{-50.0}, sim::VoltagePlane::Core)));
    machine.advance_to(machine.rail_settle_time());
    EXPECT_NEAR(machine.applied_offset(sim::VoltagePlane::Core).value(), -50.0, 1.0);
    EXPECT_EQ(guard.ignored_writes(), 0u);
}

TEST(MicrocodeGuard, OtherPlanesUnaffected) {
    test::MachineRig rig(43);
    sim::Machine& machine = rig.machine;
    MicrocodeGuard guard(machine, Millivolts{-80.0});
    guard.install();
    EXPECT_TRUE(machine.write_msr(
        0, sim::kMsrOcMailbox, sim::encode_offset(Millivolts{-200.0}, sim::VoltagePlane::Gpu)));
}

TEST(MicrocodeGuard, UninstallRestoresWrites) {
    test::MachineRig rig(44);
    sim::Machine& machine = rig.machine;
    MicrocodeGuard guard(machine, Millivolts{-80.0});
    guard.install();
    guard.uninstall();
    EXPECT_TRUE(machine.write_msr(
        0, sim::kMsrOcMailbox, sim::encode_offset(Millivolts{-150.0}, sim::VoltagePlane::Core)));
}

TEST(MicrocodeGuard, RejectsPositiveLimit) {
    test::MachineRig rig(45);
    sim::Machine& machine = rig.machine;
    EXPECT_THROW(MicrocodeGuard(machine, Millivolts{10.0}), ConfigError);
}

TEST(MsrClamp, LimitEncodingRoundTrip) {
    const std::uint64_t raw = MsrClamp::encode_limit(Millivolts{-87.0}, true);
    EXPECT_TRUE(raw & (1ULL << 31));
    EXPECT_DOUBLE_EQ(MsrClamp::decode_limit(raw).value(), -87.0);
    EXPECT_FALSE(MsrClamp::encode_limit(Millivolts{-87.0}, false) & (1ULL << 31));
}

TEST(MsrClamp, ClampsInsteadOfDropping) {
    test::MachineRig rig(46);
    sim::Machine& machine = rig.machine;
    MsrClamp clamp(machine, Millivolts{-80.0});
    clamp.install();

    // A deeper write is CLAMPED (DRAM_MIN_PWR semantics), not dropped.
    EXPECT_TRUE(machine.write_msr(
        0, sim::kMsrOcMailbox, sim::encode_offset(Millivolts{-200.0}, sim::VoltagePlane::Core)));
    EXPECT_EQ(clamp.clamped_writes(), 1u);
    machine.advance_to(machine.rail_settle_time());
    EXPECT_NEAR(machine.applied_offset(sim::VoltagePlane::Core).value(), -80.0, 1.0);
}

TEST(MsrClamp, ShallowWritesPassThrough) {
    test::MachineRig rig(47);
    sim::Machine& machine = rig.machine;
    MsrClamp clamp(machine, Millivolts{-80.0});
    clamp.install();
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(Millivolts{-40.0}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    EXPECT_NEAR(machine.applied_offset(sim::VoltagePlane::Core).value(), -40.0, 1.0);
    EXPECT_EQ(clamp.clamped_writes(), 0u);
}

TEST(MsrClamp, LockBlocksLimitRelaxation) {
    test::MachineRig rig(48);
    sim::Machine& machine = rig.machine;
    MsrClamp clamp(machine, Millivolts{-80.0}, /*locked=*/true);
    clamp.install();
    // A privileged adversary tries to widen the limit to -500 mV.
    EXPECT_FALSE(machine.write_msr(0, sim::kMsrVoltageOffsetLimit,
                                   MsrClamp::encode_limit(Millivolts{-500.0}, false)));
    EXPECT_EQ(clamp.blocked_limit_writes(), 1u);
    // Clamp still enforces the fused limit.
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(Millivolts{-300.0}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    EXPECT_NEAR(machine.applied_offset(sim::VoltagePlane::Core).value(), -80.0, 1.0);
}

TEST(MsrClamp, UnlockedLimitCanBeTightened) {
    test::MachineRig rig(49);
    sim::Machine& machine = rig.machine;
    MsrClamp clamp(machine, Millivolts{-80.0}, /*locked=*/false);
    clamp.install();
    EXPECT_TRUE(machine.write_msr(0, sim::kMsrVoltageOffsetLimit,
                                  MsrClamp::encode_limit(Millivolts{-40.0}, false)));
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(Millivolts{-200.0}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    EXPECT_NEAR(machine.applied_offset(sim::VoltagePlane::Core).value(), -40.0, 1.0);
}

TEST(Protector, DeploysAndSwitchesLevels) {
    test::MachineRig rig(50);
    os::Kernel& kernel = rig.kernel;
    Protector protector(kernel, test::comet_map());
    EXPECT_FALSE(protector.deployed());

    protector.deploy(DeploymentLevel::KernelModule);
    EXPECT_TRUE(kernel.module_loaded("plugvolt"));
    EXPECT_NE(protector.polling_module(), nullptr);

    protector.deploy(DeploymentLevel::Microcode);
    EXPECT_FALSE(kernel.module_loaded("plugvolt")) << "switching replaces the deployment";
    EXPECT_EQ(protector.polling_module(), nullptr);
    EXPECT_EQ(*protector.level(), DeploymentLevel::Microcode);

    protector.deploy(DeploymentLevel::HardwareMsr);
    EXPECT_EQ(*protector.level(), DeploymentLevel::HardwareMsr);

    protector.undeploy();
    EXPECT_FALSE(protector.deployed());
}

TEST(Protector, EveryLevelStopsADeepUndervolt) {
    for (const auto level : {DeploymentLevel::KernelModule, DeploymentLevel::Microcode,
                             DeploymentLevel::HardwareMsr}) {
        test::MachineRig rig(51);
        sim::Machine& machine = rig.machine;
        os::Kernel& kernel = rig.kernel;
        Protector protector(kernel, test::comet_map());
        protector.deploy(level);

        os::Cpupower cpupower(machine);
        cpupower.frequency_set(machine.profile().freq_max);
        machine.advance_to(machine.rail_settle_time());
        kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                 sim::encode_offset(Millivolts{-250.0},
                                                    sim::VoltagePlane::Core));
        machine.advance(milliseconds(1.0));
        const sim::BatchResult batch =
            machine.run_batch(1, sim::InstrClass::Imul, 1'000'000);
        EXPECT_EQ(batch.faults, 0u) << to_string(level);
        EXPECT_FALSE(machine.crashed()) << to_string(level);
    }
}

TEST(Turnaround, EstimateDecomposition) {
    const auto profile = sim::cometlake_i7_10510u();
    PollingConfig config;
    const TurnaroundBreakdown b = estimate_turnaround(
        profile, config, from_ghz(2.0), Millivolts{-200.0}, Millivolts{-77.0});
    EXPECT_EQ(b.detection_worst.value(), config.interval.value());
    EXPECT_EQ(b.detection_mean.value(), config.interval.value() / 2);
    EXPECT_GT(b.msr_access.value(), 0);
    EXPECT_EQ(b.regulator_latency.value(), profile.regulator.write_latency.value());
    // 123 mV at 1 mV/us = 123 us of ramp.
    EXPECT_NEAR(b.regulator_ramp.microseconds(), 123.0, 0.5);
    EXPECT_GT(b.total_worst(), b.total_mean());
}

TEST(Turnaround, SingleThreadPollerPaysIpis) {
    const auto profile = sim::cometlake_i7_10510u();
    PollingConfig per_core;
    PollingConfig single;
    single.per_core_threads = false;
    const auto a = estimate_turnaround(profile, per_core, from_ghz(2.0), Millivolts{-200.0},
                                       Millivolts{-77.0});
    const auto b = estimate_turnaround(profile, single, from_ghz(2.0), Millivolts{-200.0},
                                       Millivolts{-77.0});
    EXPECT_GT(b.msr_access.value(), a.msr_access.value());
}

TEST(Turnaround, MeasuredExposureWithinAnalyticBound) {
    test::MachineRig rig(52);
    sim::Machine& machine = rig.machine;
    auto module = std::make_shared<PollingModule>(test::comet_map(), PollingConfig{});
    rig.kernel.load_module(module);

    const Megahertz f = machine.profile().freq_max;
    const MeasuredTurnaround m =
        measure_turnaround(rig.kernel, *module, test::comet_map(), f, Millivolts{-200.0});
    EXPECT_TRUE(m.detected);
    EXPECT_FALSE(m.crashed);
    const TurnaroundBreakdown bound = estimate_turnaround(
        machine.profile(), module->config(), f, Millivolts{-200.0}, Millivolts{-77.0});
    EXPECT_LE(m.exposure().value(), bound.total_worst().value() + microseconds(20.0).value());
    EXPECT_LE((m.detected_at - m.injected_at).value(), module->config().interval.value() * 2);
}

}  // namespace
}  // namespace pv::plugvolt
