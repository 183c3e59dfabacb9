// PlugVolt quickstart: protect a machine against DVFS fault attacks in
// four steps.
//
//   $ ./quickstart
//
// 1. Boot a simulated Comet Lake package.
// 2. Characterize its safe/unsafe (frequency, voltage-offset) states
//    (the paper's Algorithm 2).
// 3. Deploy the polling countermeasure kernel module (Algorithm 3).
// 4. Launch Plundervolt against it and watch it fail.
#include <cstdio>

#include "attacks/plundervolt.hpp"
#include "plugvolt/plugvolt.hpp"

int main() {
    using namespace pv;

    // 1. A 4-core Comet Lake i7-10510U with deterministic seed.
    sim::Machine machine(sim::cometlake_i7_10510u(), /*seed=*/2024);
    os::Kernel kernel(machine);
    std::printf("booted %s (%s, microcode %s)\n", machine.profile().name.c_str(),
                machine.profile().codename.c_str(), machine.profile().microcode.c_str());

    // 2. Characterize: sweep frequency x undervolt-offset, 10^6 imul per
    //    cell, record fault onset and crash boundary per frequency.
    //    One worker scans every offset of each row in order.
    plugvolt::ParallelCharacterizerConfig sweep;
    sweep.cell.offset_step = Millivolts{2.0};  // 2 mV resolution keeps this instant
    sweep.workers = 1;
    sweep.mode = plugvolt::SweepMode::Exhaustive;
    sweep.seed = 2024;
    plugvolt::ParallelCharacterizer characterizer(machine.profile(), sweep);
    const plugvolt::SafeStateMap map = characterizer.characterize();
    std::printf("characterized %zu frequency points (%llu crash-reboots during the sweep)\n",
                map.rows().size(),
                static_cast<unsigned long long>(characterizer.stats().crash_probes));
    std::printf("maximal safe state: %.0f mV undervolt is safe at EVERY frequency\n",
                map.maximal_safe_offset().value());

    // 3. Protect.  DeploymentLevel::Microcode / HardwareMsr model the
    //    vendor-level variants from Sec. 5 of the paper.
    plugvolt::Protector protector(kernel, map);
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);
    std::printf("countermeasure deployed: %s\n", plugvolt::to_string(*protector.level()));

    // 4. Attack.  Plundervolt scans for a faulting offset, then tries to
    //    fault an RSA-CRT signature and factor the key (Bellcore).
    attack::Plundervolt attack;
    const attack::AttackResult result = attack.run(kernel);
    std::printf("\nplundervolt result: faults=%llu weaponized=%s crashes=%u\n",
                static_cast<unsigned long long>(result.faults_observed),
                result.weaponized ? "YES" : "no", result.crashes);
    std::printf("module stats: %llu polls, %llu detections, %llu restores\n",
                static_cast<unsigned long long>(protector.polling_module()->metrics().polls),
                static_cast<unsigned long long>(
                    protector.polling_module()->metrics().detections),
                static_cast<unsigned long long>(
                    protector.polling_module()->metrics().restore_writes));
    std::printf("%s\n", result.weaponized ? "!! machine compromised"
                                          : "machine protected: every unsafe state was "
                                            "detected and repaired before faults landed");
    return result.weaponized ? 1 : 0;
}
