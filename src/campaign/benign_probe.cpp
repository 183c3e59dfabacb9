#include "campaign/benign_probe.hpp"

#include "os/cpupower.hpp"
#include "sim/ocm.hpp"

namespace pv::campaign {

BenignUndervolt::BenignUndervolt(BenignUndervoltConfig config) : config_(config) {}

attack::AttackResult BenignUndervolt::run(os::Kernel& kernel) {
    attack::AttackResult result;
    result.attack_name = std::string(name());
    result.started = kernel.machine().now();

    sim::Machine& machine = kernel.machine();
    os::Cpupower cpupower(machine);
    cpupower.frequency_set(config_.pin_freq);
    machine.advance_to(machine.rail_settle_time());

    auto reaches = [&](Millivolts request) {
        result.writes_attempted++;
        const bool effective = kernel.msr().ioctl_wrmsr(
            config_.core, config_.core, sim::kMsrOcMailbox,
            sim::encode_offset(request, sim::VoltagePlane::Core));
        if (effective) result.writes_effective++;
        machine.advance(milliseconds(2.0));
        return machine.applied_offset(sim::VoltagePlane::Core).value() <
               request.value() + config_.tolerance.value();
    };
    const bool shallow = reaches(config_.shallow);
    const bool deep = reaches(config_.deep);

    if (shallow && deep) result.weaponization = "full";
    else if (shallow) result.weaponization = "clamped";
    else result.weaponization = "DENIED";
    result.notes = "benign DVFS usability probe: shallow " +
                   std::to_string(config_.shallow.value()) + " mV, deep " +
                   std::to_string(config_.deep.value()) + " mV at " +
                   std::to_string(config_.pin_freq.gigahertz()) + " GHz";
    result.crashes = 0;
    result.finished = machine.now();
    return result;
}

}  // namespace pv::campaign
