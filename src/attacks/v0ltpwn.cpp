#include "attacks/v0ltpwn.hpp"

#include "os/cpupower.hpp"
#include "sgx/program.hpp"
#include "sim/ocm.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace pv::attack {

V0ltpwn::V0ltpwn(sgx::SgxRuntime& runtime, V0ltpwnConfig config)
    : runtime_(runtime), config_(std::move(config)) {
    if (config_.victim_program.empty())
        throw ConfigError("v0ltpwn needs a victim program");
    if (config_.suppress_after_index >= config_.victim_program.size())
        throw ConfigError("suppress index beyond program end");
}

AttackResult V0ltpwn::run(os::Kernel& kernel) {
    sim::Machine& m = kernel.machine();
    os::Cpupower cpupower(kernel.cpufreq(), m.core_count());

    AttackResult result;
    result.attack_name = std::string(name());
    result.started = m.now();
    trap_detections_ = 0;

    const Megahertz pin = config_.pin_freq.value() > 0.0 ? config_.pin_freq
                                                         : m.profile().freq_max;
    cpupower.frequency_set(pin);

    // Fault-free value of the targeted register right after the targeted
    // multiply (the stepper freezes the enclave there).
    const auto reference = sgx::reference_run_prefix(config_.victim_program,
                                                     config_.suppress_after_index + 1);
    const std::uint64_t expected = reference[config_.target_reg];

    auto enclave =
        runtime_.create_enclave("v0ltpwn-victim", config_.victim_core, config_.victim_program);
    sgx::SgxStep stepper(sgx::StepperCapabilities{.single_step = true, .zero_step = true});
    stepper.suppress_after(config_.suppress_after_index);
    if (config_.use_sgx_step) enclave->attach_stepper(&stepper);

    for (Millivolts offset = config_.scan_start;
         offset >= config_.scan_floor && !result.weaponized; offset -= config_.scan_step) {
        ++result.writes_attempted;
        if (kernel.msr().ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                                     sim::kMsrOcMailbox,
                                     sim::encode_offset(offset, sim::VoltagePlane::Core)))
            ++result.writes_effective;
        const Picoseconds settle = m.rail_settle_time() + microseconds(20.0);
        if (settle > m.now()) m.advance_to(settle);
        if (m.crashed()) {
            ++result.crashes;
            m.reboot();
            cpupower.frequency_set(pin);
            if (result.crashes >= config_.max_crashes) {
                result.notes = "gave up: crash budget exhausted";
                break;
            }
            continue;
        }

        for (unsigned attempt = 0; attempt < config_.runs_per_offset; ++attempt) {
            const sgx::EnclaveRunResult er = enclave->run();
            if (er.machine_crashed) break;
            if (er.trap_detected) {
                ++trap_detections_;  // deflection fired; nothing usable leaked
                continue;
            }
            if (er.regs[config_.target_reg] != expected) {
                ++result.faults_observed;
                result.weaponized = true;
                result.weaponization =
                    "exfiltrated faulty product 0x" +
                    std::to_string(er.regs[config_.target_reg]) + " (expected " +
                    std::to_string(expected) + ")" +
                    (er.suppressed ? " via zero-step suppression" : "");
                break;
            }
        }

        if (m.crashed()) {
            ++result.crashes;
            m.reboot();
            cpupower.frequency_set(pin);
            if (result.crashes >= config_.max_crashes) {
                result.notes = "gave up: crash budget exhausted";
                break;
            }
            continue;
        }
        // Restore between offsets.
        kernel.msr().ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                                 sim::kMsrOcMailbox,
                                 sim::encode_offset(Millivolts{0.0}, sim::VoltagePlane::Core));
        const Picoseconds restore = m.rail_settle_time();
        if (restore > m.now()) m.advance_to(restore);
    }

    if (!m.crashed())
        kernel.msr().ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                                 sim::kMsrOcMailbox,
                                 sim::encode_offset(Millivolts{0.0}, sim::VoltagePlane::Core));
    if (trap_detections_ > 0 && !result.weaponized)
        result.notes = "deflected: " + std::to_string(trap_detections_) + " trap detections";
    result.finished = m.now();
    return result;
}

}  // namespace pv::attack
