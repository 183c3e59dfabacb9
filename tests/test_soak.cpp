// Randomized soak tests: a storm of privileged operations against a
// protected machine must never produce an attacker-visible fault or a
// crash, across seeds.  This is the "complete prevention" claim under
// adversarial fuzzing rather than scripted attacks.
#include <gtest/gtest.h>

#include <memory>

#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"

namespace pv {
namespace {

struct StormOutcome {
    std::uint64_t faults = 0;
    unsigned crashes = 0;
};

// Run the deterministic privileged-operation storm with an optional
// reboot-and-continue policy (DoS — crashing your own machine — is
// outside the paper's threat model; weaponizable faults are not).
StormOutcome run_storm(sim::Machine& machine, os::Kernel& kernel, std::uint64_t seed,
                       bool reboot_on_crash) {
    os::Cpupower cpupower(machine);
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const auto table = machine.profile().frequency_table();
    StormOutcome outcome;
    for (int step = 0; step < 300; ++step) {
        switch (rng.uniform_below(5)) {
            case 0: {  // random frequency request on a random core
                const Megahertz f = table[rng.uniform_below(table.size())];
                machine.write_msr(static_cast<unsigned>(rng.uniform_below(4)),
                                  sim::kMsrPerfCtl,
                                  (static_cast<std::uint64_t>(f.value() / 100.0) & 0xFF)
                                      << 8);
                break;
            }
            case 1: {  // cpupower pin, all cores
                cpupower.frequency_set(table[rng.uniform_below(table.size())]);
                break;
            }
            case 2: {  // random OCM offset, 0 .. -320 mV (may exceed the sweep)
                const Millivolts offset{-rng.uniform(0.0, 320.0)};
                kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                         sim::encode_offset(offset,
                                                            sim::VoltagePlane::Core));
                break;
            }
            case 3: {  // let time pass (rails settle, polls fire)
                machine.advance(microseconds(rng.uniform(5.0, 400.0)));
                break;
            }
            case 4: {  // victim computes: faults here are what matters
                const sim::BatchResult b = machine.run_batch(
                    1, sim::InstrClass::Imul, 20'000 + rng.uniform_below(80'000));
                outcome.faults += b.faults;
                break;
            }
        }
        if (machine.crashed()) {
            ++outcome.crashes;
            if (!reboot_on_crash) return outcome;
            machine.reboot();
        }
    }
    return outcome;
}

class ProtectedSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtectedSoak, HardwareClampIsAbsolute) {
    // The Sec. 5.2 deployment closes every transition race: the unsafe
    // command never exists, so neither faults nor crashes are possible.
    const std::uint64_t seed = GetParam();
    sim::Machine machine(sim::cometlake_i7_10510u(), seed);
    os::Kernel kernel(machine);
    plugvolt::Protector protector(kernel, test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::HardwareMsr);
    const StormOutcome outcome = run_storm(machine, kernel, seed, false);
    EXPECT_EQ(outcome.faults, 0u) << "seed " << seed;
    EXPECT_EQ(outcome.crashes, 0u) << "seed " << seed;
}

TEST_P(ProtectedSoak, MicrocodeGuardIsAbsolute) {
    const std::uint64_t seed = GetParam();
    sim::Machine machine(sim::cometlake_i7_10510u(), seed);
    os::Kernel kernel(machine);
    plugvolt::Protector protector(kernel, test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::Microcode);
    const StormOutcome outcome = run_storm(machine, kernel, seed, false);
    EXPECT_EQ(outcome.faults, 0u) << "seed " << seed;
    EXPECT_EQ(outcome.crashes, 0u) << "seed " << seed;
}

TEST_P(ProtectedSoak, PollingModuleNeverLeaksFaults) {
    // The software module cannot stop a root attacker from crashing the
    // machine through a descending-rail transition (DoS is out of scope
    // — root can power the box off anyway), but the module survives the
    // reboot and no weaponizable fault may ever reach the victim.
    const std::uint64_t seed = GetParam();
    sim::Machine machine(sim::cometlake_i7_10510u(), seed);
    os::Kernel kernel(machine);
    plugvolt::Protector protector(kernel, test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);
    const StormOutcome outcome = run_storm(machine, kernel, seed, true);
    EXPECT_EQ(outcome.faults, 0u) << "seed " << seed;
    EXPECT_LE(outcome.crashes, 3u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtectedSoak,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(UnprotectedSoak, SameStormFaultsOrCrashesEventually) {
    // Sanity check that the storm is actually dangerous: without the
    // module, at least one seed must observe faults or a crash.
    bool any_damage = false;
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        sim::Machine machine(sim::cometlake_i7_10510u(), seed);
        os::Kernel kernel(machine);
        const StormOutcome outcome = run_storm(machine, kernel, seed, false);
        any_damage |= outcome.faults > 0 || outcome.crashes > 0;
    }
    EXPECT_TRUE(any_damage) << "the storm must be dangerous without protection";
}

}  // namespace
}  // namespace pv
