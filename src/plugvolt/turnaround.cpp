#include "plugvolt/turnaround.hpp"

#include <cmath>

#include "os/cpupower.hpp"
#include "sim/ocm.hpp"
#include "util/error.hpp"

namespace pv::plugvolt {

TurnaroundBreakdown estimate_turnaround(const sim::CpuProfile& profile,
                                        const PollingConfig& config, Megahertz poll_freq,
                                        Millivolts unsafe_offset, Millivolts safe_offset) {
    if (poll_freq.value() <= 0.0) throw ConfigError("poll frequency must be positive");
    TurnaroundBreakdown b;
    b.detection_worst = config.interval;
    b.detection_mean = Picoseconds{config.interval.value() / 2};

    // Poll body on detection: two rdmsr + one wrmsr (local when per-core
    // threads, remote/IPI-priced otherwise) plus the kthread wakeup.
    const std::uint64_t ipi = config.per_core_threads ? 0 : profile.costs.ipi_cycles;
    const std::uint64_t cycles = profile.costs.kthread_wake_cycles +
                                 2 * (profile.costs.rdmsr_cycles + ipi) +
                                 (profile.costs.wrmsr_cycles + ipi);
    b.msr_access = Cycles{cycles}.at(poll_freq);

    b.regulator_latency = profile.regulator.write_latency;
    const double delta_mv = std::abs((safe_offset - unsafe_offset).value());
    b.regulator_ramp = microseconds(delta_mv / profile.regulator.slew_mv_per_us);
    return b;
}

MeasuredTurnaround measure_turnaround(os::Kernel& kernel, const PollingModule& module,
                                      const SafeStateMap& map, Megahertz f,
                                      Millivolts unsafe_offset) {
    sim::Machine& m = kernel.machine();
    os::Cpupower cpupower(m);
    cpupower.frequency_set(f);

    MeasuredTurnaround result;
    const std::uint64_t detections_before = module.metrics().detections;

    // Attacker injects the unsafe command from userspace on core 0.
    result.injected_at = m.now();
    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(unsafe_offset, sim::VoltagePlane::Core));

    // Watch until the rail is back above the fault onset for f (or the
    // machine crashes / we time out after 50 ms).
    const Millivolts onset_edge = map.safe_limit(f, Millivolts{0.0});
    const Picoseconds deadline = m.now() + milliseconds(50.0);
    while (m.now() < deadline && !m.crashed()) {
        m.advance(microseconds(2.0));
        const Millivolts applied = m.applied_offset(sim::VoltagePlane::Core);
        if (module.metrics().detections > detections_before && !result.detected) {
            result.detected = true;
            result.detected_at = module.metrics().last_detection;
        }
        // Safe again once the commanded target is safe and the rail has
        // climbed back out of (or never reached) the unsafe band.
        const Millivolts commanded = m.regulator().target(sim::VoltagePlane::Core);
        if (result.detected && commanded >= onset_edge && applied >= onset_edge) {
            result.rail_safe_at = m.now();
            result.crashed = false;
            return result;
        }
    }
    result.crashed = m.crashed();
    result.rail_safe_at = m.now();
    return result;
}

}  // namespace pv::plugvolt
