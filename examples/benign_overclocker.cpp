// The paper's differentiator, from a power user's point of view: with
// PlugVolt deployed, DVFS stays fully usable — frequency scaling AND
// safe undervolting — even while an SGX enclave is loaded; under Intel's
// SA-00289 access control the same user is locked out entirely.
//
//   $ ./benign_overclocker
#include <cstdio>

#include "defenses/access_control.hpp"
#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sgx/runtime.hpp"
#include "sim/ocm.hpp"

using namespace pv;

namespace {

// A day in the life of a laptop power user: battery-saver undervolt at
// low frequency, then a gaming session at max turbo with a modest
// undervolt for thermals.  Returns how many of the requests landed.
int power_user_session(sim::Machine& machine, os::Kernel& kernel) {
    os::Cpupower cpupower(machine);
    int granted = 0;

    // Battery saver: 1.2 GHz, -150 mV (safe: onset there is ~-296 mV).
    cpupower.frequency_set(from_ghz(1.2));
    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(Millivolts{-150.0},
                                                sim::VoltagePlane::Core));
    machine.advance(milliseconds(3.0));
    const double saver = machine.applied_offset(sim::VoltagePlane::Core).value();
    std::printf("  battery saver:  1.2 GHz @ %+.0f mV  %s\n", saver,
                saver < -140.0 ? "(granted)" : "(blocked)");
    granted += saver < -140.0;

    // Gaming: max turbo with a -40 mV thermal undervolt (safe everywhere).
    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(Millivolts{-40.0},
                                                sim::VoltagePlane::Core));
    machine.advance(milliseconds(2.0));
    cpupower.frequency_set(machine.profile().freq_max);
    machine.advance(milliseconds(2.0));
    cpupower.frequency_set(machine.profile().freq_max);  // governor re-request
    machine.advance(milliseconds(3.0));
    const double gaming = machine.applied_offset(sim::VoltagePlane::Core).value();
    const double freq = machine.core(0).frequency().value();
    const bool turbo_ok = freq == machine.profile().freq_max.value() && gaming < -35.0;
    std::printf("  gaming session: %.1f GHz @ %+.0f mV  %s\n", freq / 1000.0, gaming,
                turbo_ok ? "(granted)" : "(blocked)");
    granted += turbo_ok;
    return granted;
}

}  // namespace

int main() {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();

    // Characterize once (any of the machines below share the silicon).
    plugvolt::SafeStateMap map = [&] {
        plugvolt::ParallelCharacterizerConfig sweep;
        sweep.cell.offset_step = Millivolts{2.0};
        sweep.workers = 1;
        sweep.mode = plugvolt::SweepMode::Exhaustive;
        sweep.seed = 1;
        return plugvolt::ParallelCharacterizer(profile, sweep).characterize();
    }();

    std::printf("scenario: an SGX enclave is loaded on the platform the whole time.\n\n");

    std::printf("[PlugVolt polling module deployed]\n");
    {
        sim::Machine machine(profile, 2);
        os::Kernel kernel(machine);
        sgx::SgxRuntime runtime(kernel);
        auto enclave = runtime.create_enclave("payment-service", 3);
        plugvolt::Protector protector(kernel, map);
        protector.deploy(plugvolt::DeploymentLevel::KernelModule);
        const int granted = power_user_session(machine, kernel);
        std::printf("  => %d/2 requests granted; detections=%llu (nothing benign "
                    "triggered the module)\n\n",
                    granted,
                    static_cast<unsigned long long>(
                        protector.polling_module()->metrics().detections));
    }

    std::printf("[Intel SA-00289 access control active]\n");
    {
        sim::Machine machine(profile, 3);
        os::Kernel kernel(machine);
        sgx::SgxRuntime runtime(kernel);
        auto enclave = runtime.create_enclave("payment-service", 3);
        defense::AccessControl patch(machine, runtime);
        patch.install();
        const int granted = power_user_session(machine, kernel);
        std::printf("  => %d/2 requests granted; %llu OCM writes blocked outright\n",
                    granted, static_cast<unsigned long long>(patch.blocked_writes()));
    }
    return 0;
}
