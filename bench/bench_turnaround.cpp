// Sec. 5 reproduction: countermeasure turnaround time across deployment
// levels.  For the kernel module we both decompose the analytic bound
// (ioctl/MSR costs + regulator latency + ramp, the paper's two
// contributors) and measure live injections; the microcode and hardware
// deployments never let the unsafe state form, so their turnaround is
// identically zero.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "plugvolt/plugvolt.hpp"
#include "trace/recorder.hpp"
#include "util/stats.hpp"

using namespace pv;

int main() {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const plugvolt::SafeStateMap map = bench::characterize(profile, Millivolts{2.0});
    std::printf("=== Sec. 5: countermeasure turnaround time ===\n");
    std::printf("system: %s; injected excursion: -200 mV at three frequencies\n\n",
                profile.codename.c_str());

    // --- Analytic decomposition for the kernel module ---------------------
    plugvolt::PollingConfig polling;
    Table analytic({"poll freq (GHz)", "detection mean/worst (us)", "MSR access (us)",
                    "regulator latency (us)", "regulator ramp (us)",
                    "total mean/worst (us)"});
    for (const double ghz : {1.2, 2.4, 4.9}) {
        const auto b = plugvolt::estimate_turnaround(
            profile, polling, from_ghz(ghz), Millivolts{-200.0},
            map.safe_limit(from_ghz(ghz), plugvolt::kDefaultGuardBand));
        analytic.add_row({Table::num(ghz, 1),
                          Table::num(b.detection_mean.microseconds(), 1) + " / " +
                              Table::num(b.detection_worst.microseconds(), 1),
                          Table::num(b.msr_access.microseconds(), 3),
                          Table::num(b.regulator_latency.microseconds(), 1),
                          Table::num(b.regulator_ramp.microseconds(), 1),
                          Table::num(b.total_mean().microseconds(), 1) + " / " +
                              Table::num(b.total_worst().microseconds(), 1)});
    }
    std::printf("Kernel-module deployment, analytic decomposition:\n%s\n",
                analytic.render().c_str());

    // --- Measured injections ----------------------------------------------
    // Each injection records onto its own trace track (id = trial), so
    // TRACE_turnaround.json shows the OCM write -> detection -> rewrite
    // sequence per trial on a virtual-time axis.
    trace::TraceSession trace_session;
    Table measured({"injection #", "f (GHz)", "inject (mV)", "detect latency (us)",
                    "exposure (us)", "crashed?"});
    OnlineStats exposures;
    for (int trial = 0; trial < 10; ++trial) {
        trace::ScopedRecorder bind(&trace_session.create_track(
            "trial-" + std::to_string(trial), static_cast<std::uint64_t>(trial)));
        sim::Machine machine(profile, 500 + static_cast<std::uint64_t>(trial));
        os::Kernel kernel(machine);
        auto module = std::make_shared<plugvolt::PollingModule>(map, polling);
        kernel.load_module(module);
        // Offset injection phase differs per trial: advance a pseudo-random
        // amount so the poll phase varies.
        machine.advance(microseconds(7.0 * (trial + 1)));
        const Megahertz f = from_ghz(trial % 2 == 0 ? 4.9 : 2.4);
        // Inject mid-band for this frequency (between onset and crash).
        const auto& row = map.rows()[static_cast<std::size_t>(
            (f.value() - map.rows().front().freq.value()) / 100.0)];
        const Millivolts inject{0.5 * (row.onset.value() + row.crash.value())};
        const auto m = plugvolt::measure_turnaround(kernel, *module, map, f, inject);
        measured.add_row({std::to_string(trial), Table::num(f.gigahertz(), 1),
                          Table::num(inject.value(), 0),
                          m.detected ? Table::num((m.detected_at - m.injected_at).microseconds(), 1)
                                     : "not detected",
                          Table::num(m.exposure().microseconds(), 1),
                          m.crashed ? "CRASH" : "no"});
        if (m.detected && !m.crashed) exposures.add(m.exposure().microseconds());
    }
    std::printf("Kernel-module deployment, measured injections:\n%s\n",
                measured.render().c_str());
    std::printf("measured exposure: mean %.1f us, min %.1f, max %.1f (n=%zu)\n\n",
                exposures.mean(), exposures.min(), exposures.max(), exposures.count());

    // --- Vendor-level deployments -------------------------------------------
    std::printf("Vendor-level deployments (maximal safe state %.0f mV):\n",
                map.maximal_safe_offset(plugvolt::kDefaultGuardBand).value());
    for (const auto level :
         {plugvolt::DeploymentLevel::Microcode, plugvolt::DeploymentLevel::HardwareMsr}) {
        sim::Machine machine(profile, 900);
        os::Kernel kernel(machine);
        plugvolt::Protector protector(kernel, map);
        protector.deploy(level);
        machine.set_all_frequencies(profile.freq_max);
        machine.advance_to(machine.rail_settle_time());
        machine.write_msr(0, sim::kMsrOcMailbox,
                          sim::encode_offset(Millivolts{-200.0}, sim::VoltagePlane::Core));
        machine.advance(milliseconds(2.0));
        const double deepest = machine.applied_offset(sim::VoltagePlane::Core).value();
        std::printf("  %-13s: unsafe write %s; deepest applied offset %.1f mV; "
                    "turnaround = 0 (state never entered)\n",
                    plugvolt::to_string(level),
                    level == plugvolt::DeploymentLevel::Microcode ? "write-ignored"
                                                                  : "clamped",
                    deepest);
    }

    trace_session.write_chrome_json("TRACE_turnaround.json");
    trace_session.write_csv("TRACE_turnaround.csv");
    std::printf("\ntrace: %llu events on %zu tracks -> TRACE_turnaround.{json,csv}\n",
                static_cast<unsigned long long>(trace_session.event_count()),
                trace_session.track_count());
    return 0;
}
