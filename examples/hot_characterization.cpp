// Thermal-aware deployment: why the safe-state map must be taken HOT.
//
// Timing margins shrink as the die heats, so a map characterized on an
// idle (cool) machine under-reports the fault onset.  This example
// characterizes the same part cold and preheated to 85 C, shows the gap,
// then demonstrates the operational consequence: a machine running hot
// under a cold map can be faulted inside the map's blind spot, while the
// hot map stays conservative at every temperature.
//
//   $ ./hot_characterization
#include <cstdio>

#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/ocm.hpp"

using namespace pv;

namespace {

plugvolt::SafeStateMap characterize(const sim::CpuProfile& profile, double preheat_c) {
    plugvolt::ParallelCharacterizerConfig config;
    config.cell.offset_step = Millivolts{2.0};
    config.cell.die_preheat_c = preheat_c;
    config.workers = 1;
    config.mode = plugvolt::SweepMode::Exhaustive;
    config.seed = 0x7E47;
    return plugvolt::ParallelCharacterizer(profile, config).characterize();
}

// Attack a machine pinned hot at fmax with an offset chosen inside the
// cold map's blind spot: safe per the cold map, unsafe on hot silicon.
std::uint64_t faults_in_blind_spot(const sim::CpuProfile& profile,
                                   const plugvolt::SafeStateMap& deployed_map,
                                   Millivolts park) {
    sim::Machine machine(profile, 0xB007);
    os::Kernel kernel(machine);
    plugvolt::Protector protector(kernel, deployed_map);
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);

    os::Cpupower cpupower(machine);
    cpupower.frequency_set(profile.freq_max);
    machine.advance_to(machine.rail_settle_time());
    machine.set_die_temperature(85.0);  // a loaded laptop on a warm desk

    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(park, sim::VoltagePlane::Core));
    machine.advance(milliseconds(1.0));
    if (machine.crashed()) return 999999;
    machine.set_die_temperature(85.0);  // hold the temperature for the probe
    return machine.run_batch(1, sim::InstrClass::Imul, 2'000'000).faults;
}

}  // namespace

int main() {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    std::printf("characterizing %s cold (ambient) and hot (85 C)...\n\n",
                profile.codename.c_str());
    const plugvolt::SafeStateMap cold = characterize(profile, 0.0);
    const plugvolt::SafeStateMap hot = characterize(profile, 85.0);

    const Megahertz fmax = profile.freq_max;
    const double gap_mv =
        (hot.safe_limit(fmax, Millivolts{0.0}) - cold.safe_limit(fmax, Millivolts{0.0})).value();
    std::printf("onset at %.1f GHz:  cold map %.0f mV   hot map %.0f mV   (gap %.0f mV)\n",
                fmax.gigahertz(), cold.safe_limit(fmax, Millivolts{0.0}).value(),
                hot.safe_limit(fmax, Millivolts{0.0}).value(), gap_mv);
    std::printf("maximal safe state: cold map %.0f mV   hot map %.0f mV\n\n",
                cold.maximal_safe_offset(plugvolt::kDefaultGuardBand).value(),
                hot.maximal_safe_offset(plugvolt::kDefaultGuardBand).value());

    // The blind spot: tolerated by the cold map's module (outside its
    // guard band), but already inside the hot silicon's fault band.
    const Millivolts park = cold.safe_limit(fmax, Millivolts{16.0});
    std::printf("attacker parks at %.0f mV on an 85 C machine:\n", park.value());
    const std::uint64_t cold_faults = faults_in_blind_spot(profile, cold, park);
    const std::uint64_t hot_faults = faults_in_blind_spot(profile, hot, park);
    std::printf("  deployed COLD map: %llu faults leaked %s\n",
                static_cast<unsigned long long>(cold_faults),
                cold_faults > 0 ? "(blind spot confirmed)" : "");
    std::printf("  deployed HOT map:  %llu faults (the hot map restores the command "
                "before the band)\n",
                static_cast<unsigned long long>(hot_faults));
    std::printf("\nrule: characterize at the highest die temperature the deployment "
                "will see,\nor budget the thermal shift (~%.2f mV/K here) into the "
                "guard band.\n",
                gap_mv / (85.0 - profile.thermal.ambient_c));  // the two maps' slope
    return hot_faults == 0 ? 0 : 1;
}
