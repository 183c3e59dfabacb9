// End-to-end pipeline tests: characterize -> persist -> protect -> attack.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/plundervolt.hpp"
#include "attacks/voltjockey.hpp"
#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "test_helpers.hpp"

namespace pv {
namespace {

TEST(Integration, FullPipelineOnCometLake) {
    // 1. Characterize (shared, deterministic).
    const plugvolt::SafeStateMap& map = test::comet_map();
    ASSERT_FALSE(map.rows().empty());

    // 2. Persist and reload the characterization (as a deployed module
    //    would consume it).
    const plugvolt::SafeStateMap reloaded = plugvolt::SafeStateMap::from_csv(
        map.to_csv(), map.system_name(), map.sweep_floor());

    // 3. Protect a fresh machine with the reloaded map.
    sim::Machine machine(sim::cometlake_i7_10510u(), 1234);
    os::Kernel kernel(machine);
    plugvolt::Protector protector(kernel, reloaded);
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);

    // 4. Attack it: both directions must be fully blocked.
    attack::Plundervolt plundervolt;
    const attack::AttackResult pr = plundervolt.run(kernel);
    EXPECT_FALSE(pr.weaponized);
    EXPECT_EQ(pr.faults_observed, 0u);

    attack::VoltJockey voltjockey;
    const attack::AttackResult vr = voltjockey.run(kernel);
    EXPECT_FALSE(vr.weaponized);
    EXPECT_EQ(vr.faults_observed, 0u);

    EXPECT_FALSE(machine.crashed());
    EXPECT_EQ(machine.boot_count(), 1u) << "the defended machine never crashed";
}

TEST(Integration, BenignDvfsStillAvailableWhileProtected) {
    // The paper's differentiator: with the countermeasure live, a benign
    // process keeps full P-state control AND safe undervolting.
    sim::Machine machine(sim::cometlake_i7_10510u(), 55);
    os::Kernel kernel(machine);
    plugvolt::Protector protector(kernel, test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);

    os::Cpupower cpupower(kernel.cpufreq(), machine.core_count());
    // Power user: low frequency + deep (but safe) undervolt.
    cpupower.frequency_set(from_ghz(0.8));
    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(Millivolts{-120.0},
                                                sim::VoltagePlane::Core));
    machine.advance(milliseconds(2.0));
    EXPECT_NEAR(machine.applied_offset(sim::VoltagePlane::Core).value(), -120.0, 1.0);

    // Gamer: back to max frequency; the module cancels the first raise
    // (the parked offset is unsafe up there) and clamps the offset — after
    // which the governor's periodic re-request (modeled by a second
    // frequency_set) must go through.
    cpupower.frequency_set(machine.profile().freq_max);
    machine.advance(milliseconds(2.0));
    cpupower.frequency_set(machine.profile().freq_max);
    machine.advance(milliseconds(5.0));
    EXPECT_DOUBLE_EQ(machine.core(0).frequency().value(),
                     machine.profile().freq_max.value());
    EXPECT_FALSE(machine.crashed());
}

TEST(Integration, CrashRebootCycleLeavesConsistentState) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 56);
    os::Kernel kernel(machine);
    os::Cpupower cpupower(kernel.cpufreq(), machine.core_count());

    for (int episode = 0; episode < 3; ++episode) {
        cpupower.frequency_set(machine.profile().freq_max);
        machine.advance_to(machine.rail_settle_time());
        machine.write_msr(0, sim::kMsrOcMailbox,
                          sim::encode_offset(Millivolts{-300.0}, sim::VoltagePlane::Core));
        machine.advance(milliseconds(2.0));
        ASSERT_TRUE(machine.crashed());
        machine.reboot();
        ASSERT_FALSE(machine.crashed());
        // Post-boot sanity: nominal state, batch runs clean.
        const sim::BatchResult batch = machine.run_batch(1, sim::InstrClass::Imul, 100'000);
        EXPECT_EQ(batch.faults, 0u);
    }
    EXPECT_EQ(machine.boot_count(), 4u);
}

TEST(Integration, CharacterizationUnaffectedByPriorProtection) {
    // Characterizing with the module loaded sees a fault-free system —
    // the countermeasure masks the unsafe region (a nice self-test of
    // the defense; also why attackers must characterize unprotected).
    sim::Machine machine(sim::cometlake_i7_10510u(), 57);
    os::Kernel kernel(machine);
    plugvolt::Protector protector(kernel, test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);

    // The sweep engine boots machines of its own, so this walks the
    // Algorithm 2 columns by hand on the protected kernel.
    plugvolt::CharacterizerConfig config;
    config.offset_step = Millivolts{25.0};
    plugvolt::Characterizer chr(kernel, config);
    for (const Megahertz f : machine.profile().frequency_table()) {
        for (std::uint64_t s = 1; s <= chr.sweep_steps(); ++s) {
            const plugvolt::CellResult cell = chr.test_cell(f, chr.offset_at_step(s));
            ASSERT_FALSE(cell.crashed) << f.value() << " MHz, step " << s;
            EXPECT_EQ(cell.faults, 0u) << f.value() << " MHz, step " << s;
        }
    }
}

TEST(Integration, MapsDifferAcrossGenerations) {
    const auto& sky = test::cached_map(sim::skylake_i5_6500());
    const auto& kaby = test::cached_map(sim::kabylake_r_i5_8250u());
    const auto& comet = test::cached_map(sim::cometlake_i7_10510u());
    EXPECT_NE(sky.to_csv(), kaby.to_csv());
    EXPECT_NE(kaby.to_csv(), comet.to_csv());
    // Comet Lake's 4.9 GHz turbo leaves the least headroom at the top,
    // so its maximal safe state is the SHALLOWEST of the three.
    EXPECT_GT(comet.maximal_safe_offset(), sky.maximal_safe_offset());
    EXPECT_GT(comet.maximal_safe_offset(), kaby.maximal_safe_offset());
}

}  // namespace
}  // namespace pv
