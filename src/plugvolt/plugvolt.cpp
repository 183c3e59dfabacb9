#include "plugvolt/plugvolt.hpp"

namespace pv::plugvolt {

const char* to_string(DeploymentLevel level) {
    switch (level) {
        case DeploymentLevel::KernelModule: return "kernel-module";
        case DeploymentLevel::Microcode: return "microcode";
        case DeploymentLevel::HardwareMsr: return "hardware-msr";
    }
    return "?";
}

Protector::Protector(os::Kernel& kernel, SafeStateMap map)
    : kernel_(kernel),
      table_(std::move(map), kDefaultGuardBand, RestorePolicy::ClampToMaximalSafe) {}

Protector::~Protector() { undeploy(); }

void Protector::deploy(DeploymentLevel level, PollingConfig config) {
    undeploy();
    switch (level) {
        case DeploymentLevel::KernelModule:
            // Arm the rail watchdog with the platform's fused VF table
            // unless the caller configured it explicitly.
            if (!config.watch_measured_rail && !config.nominal_rail) {
                config.watch_measured_rail = true;
                config.nominal_rail = kernel_.machine().profile().vf_curve();
            }
            module_ = std::make_shared<PollingModule>(table_.map(), config);
            kernel_.load_module(module_);
            break;
        case DeploymentLevel::Microcode:
            microcode_ =
                std::make_unique<MicrocodeGuard>(kernel_.machine(), table_.maximal_safe());
            microcode_->install();
            break;
        case DeploymentLevel::HardwareMsr:
            clamp_ = std::make_unique<MsrClamp>(kernel_.machine(), table_.maximal_safe());
            clamp_->install();
            break;
    }
    level_ = level;
}

void Protector::undeploy() {
    if (module_) {
        kernel_.unload_module(PollingModule::kModuleName);
        module_.reset();
    }
    microcode_.reset();  // destructor uninstalls
    clamp_.reset();
    level_.reset();
}

}  // namespace pv::plugvolt
