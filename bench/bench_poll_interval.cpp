// Ablation: polling interval vs protection and overhead.
//
// DESIGN.md calls the poll interval the kernel module's central tuning
// knob: it must be short enough that a commanded-unsafe state is caught
// before the regulator physically reaches the unsafe band
// (slew * interval < shallowest onset), yet long enough that the per-
// wakeup cost stays in the 0.28% regime.  This bench sweeps the interval
// and reports both sides, plus the per-core vs single-poller layout.
#include <cstdio>
#include <memory>

#include "attacks/plundervolt.hpp"
#include "bench_common.hpp"
#include "plugvolt/plugvolt.hpp"
#include "trace/recorder.hpp"
#include "workload/spec_suite.hpp"

using namespace pv;

namespace {

struct Sweep {
    double interval_us;
    bool per_core;
};

}  // namespace

int main() {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const plugvolt::SafeStateMap map = bench::characterize(profile, Millivolts{2.0});
    std::printf("=== Ablation: poll interval vs protection and overhead (%s) ===\n",
                profile.codename.c_str());
    std::printf("prevention condition: slew (%.1f mV/us) x interval < shallowest onset "
                "(%.0f mV)\n\n",
                profile.regulator.slew_mv_per_us,
                -map.maximal_safe_offset(Millivolts{0.0}).value());

    workload::SpecSuiteConfig suite_config;
    suite_config.units = 60;
    suite_config.noise_fraction = 0.0;  // isolate the stolen-cycle effect

    Table table({"interval (us)", "layout", "attack faults", "weaponized",
                 "detections", "overhead on x264 (%)"});

    const std::vector<Sweep> sweeps = {
        {10.0, true}, {25.0, true},  {50.0, true},  {100.0, true},
        {250.0, true}, {1000.0, true}, {50.0, false}, {250.0, false},
    };
    // One trace track per sweep row (id = row index): the attack-vs-
    // module duel under each interval, on a virtual-time axis.
    trace::TraceSession trace_session;
    for (std::size_t row_index = 0; row_index < sweeps.size(); ++row_index) {
        const Sweep& sweep = sweeps[row_index];
        plugvolt::PollingConfig polling;
        polling.interval = microseconds(sweep.interval_us);
        polling.per_core_threads = sweep.per_core;

        // Protection: a full Plundervolt campaign against the module.
        sim::Machine machine(profile, 3000);
        os::Kernel kernel(machine);
        auto module = std::make_shared<plugvolt::PollingModule>(map, polling);
        kernel.load_module(module);
        attack::Plundervolt atk;
        attack::AttackResult r;
        {
            trace::ScopedRecorder bind(&trace_session.create_track(
                "interval-" + Table::num(sweep.interval_us, 0) + "us-" +
                    (sweep.per_core ? "percore" : "ipi"),
                row_index));
            r = atk.run(kernel);
        }

        // Overhead: the compute-dense x264 row at all-core turbo.
        workload::SpecSuite suite(profile, suite_config);
        const workload::SpecBenchmark& x264 = workload::table2_benchmark("525.x264_r");
        const double without =
            suite.measure_rate(x264, Megahertz{4600.0}, false, map, polling, 1.0, 100.0, 1);
        const double with =
            suite.measure_rate(x264, Megahertz{4600.0}, true, map, polling, 1.0, 100.0, 1);
        const double overhead = (without - with) / without;

        table.add_row({Table::num(sweep.interval_us, 0),
                       sweep.per_core ? "per-core" : "single+IPI",
                       std::to_string(r.faults_observed), r.weaponized ? "YES" : "no",
                       std::to_string(module->metrics().detections),
                       Table::pct(overhead, 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: overhead scales ~1/interval; protection holds while\n"
                "slew x interval stays under the onset depth, and erodes beyond it.\n"
                "The single-poller layout pays IPIs on one core (higher overhead there).\n");

    trace_session.write_chrome_json("TRACE_poll_interval.json");
    trace_session.write_csv("TRACE_poll_interval.csv");
    std::printf("trace: %llu events on %zu tracks -> TRACE_poll_interval.{json,csv}\n",
                static_cast<unsigned long long>(trace_session.event_count()),
                trace_session.track_count());
    return 0;
}
