// PlugVolt — umbrella header and high-level protection facade.
//
// The library reproduces "Plug Your Volt" (DAC 2024): characterize a
// system's safe/unsafe (frequency, voltage-offset) states, then enforce
// safety at one of three deployment levels — kernel-module polling
// (Sec. 4.3), microcode write-ignore (Sec. 5.1), or a hardware clamp MSR
// (Sec. 5.2).
//
// Typical use:
//
//   const sim::CpuProfile profile = sim::cometlake_i7_10510u();
//   plugvolt::ParallelCharacterizer sweep(profile, {});  // Algo. 2
//   sim::Machine machine(profile, seed);
//   os::Kernel kernel(machine);
//   plugvolt::Protector protector(kernel, sweep.characterize());
//   protector.deploy(plugvolt::DeploymentLevel::KernelModule);
#pragma once

#include <memory>

#include "plugvolt/limit_table.hpp"
#include "plugvolt/microcode_guard.hpp"
#include "plugvolt/msr_clamp.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/polling_module.hpp"
#include "plugvolt/safe_state.hpp"
#include "plugvolt/turnaround.hpp"

namespace pv::plugvolt {

/// Where the countermeasure is enforced.
enum class DeploymentLevel {
    KernelModule,  ///< Algo. 3 polling kthreads (software-only, deployable today)
    Microcode,     ///< Sec. 5.1 sequencer write-ignore (vendor microcode)
    HardwareMsr,   ///< Sec. 5.2 MSR_VOLTAGE_OFFSET_LIMIT clamp (silicon)
};

[[nodiscard]] const char* to_string(DeploymentLevel level);

/// One-stop deployment facade over the three mechanisms.  The microcode
/// and hardware levels enforce the maximal safe state of one LimitTable
/// built at kDefaultGuardBand; the kernel module builds its own from the
/// PollingConfig it is deployed with.
class Protector {
public:
    Protector(os::Kernel& kernel, SafeStateMap map);
    ~Protector();

    Protector(const Protector&) = delete;
    Protector& operator=(const Protector&) = delete;

    /// Activate protection at `level` (replacing any active deployment).
    /// `config` applies to the KernelModule level only.
    void deploy(DeploymentLevel level, PollingConfig config = {});

    /// Deactivate protection entirely.
    void undeploy();

    [[nodiscard]] bool deployed() const { return level_.has_value(); }
    [[nodiscard]] std::optional<DeploymentLevel> level() const { return level_; }
    [[nodiscard]] const SafeStateMap& map() const { return table_.map(); }

    /// Live module when deployed at KernelModule level, else nullptr.
    [[nodiscard]] const PollingModule* polling_module() const { return module_.get(); }

private:
    os::Kernel& kernel_;
    LimitTable table_;
    std::optional<DeploymentLevel> level_;
    std::shared_ptr<PollingModule> module_;
    std::unique_ptr<MicrocodeGuard> microcode_;
    std::unique_ptr<MsrClamp> clamp_;
};

}  // namespace pv::plugvolt
