// Table 2 reproduction: overhead of the polling countermeasure on the
// SPEC CPU2017 rate suite (Comet Lake, microcode 0xf4).
//
// Methodology (mirrors the paper): each of the 23 benchmarks runs in
// base and peak tuning, with and without the PlugVolt kernel module
// loaded.  A benchmark is a row of the cost table (instructions per
// unit, IPC); its rate is a simulated-time measurement — the module's
// kthreads steal cycles from the very windows the copies run in.
// Without-polling rates are anchored to the paper's testbed values (see
// workload/spec_suite.hpp); the slowdowns are the measurement.  The
// output is deterministic; bench/baselines/table2_spec_overhead.txt
// holds it byte for byte.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "workload/spec_suite.hpp"

using namespace pv;

int main() {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    std::printf("=== Table 2: polling-countermeasure overhead on SPEC2017 rate ===\n");
    std::printf("system: %s (%s, microcode %s), %u copies\n", profile.name.c_str(),
                profile.codename.c_str(), profile.microcode.c_str(), profile.core_count);

    const plugvolt::SafeStateMap map = bench::characterize(profile, Millivolts{5.0});
    plugvolt::PollingConfig polling;  // defaults: 50 us, per-core threads
    std::printf("polling: interval %.0f us, per-core kthreads, clamp-to-safe-limit "
                "restore policy\n\n",
                polling.interval.microseconds());

    workload::SpecSuiteConfig config;
    config.units = 200;
    workload::SpecSuite suite(profile, config);
    const auto scores = suite.run(map, polling);

    Table table({"Benchmark", "Base rate (w/o polling)", "Base rate (with polling)",
                 "Slowdown (%)", "Peak rate (w/o polling)", "Peak rate (with polling)",
                 "Slowdown (%)"});
    OnlineStats all_slowdowns;
    for (const auto& s : scores) {
        table.add_row({s.name, Table::num(s.base_rate_without, 2),
                       Table::num(s.base_rate_with, 2), Table::pct(s.base_slowdown()),
                       Table::num(s.peak_rate_without, 2), Table::num(s.peak_rate_with, 2),
                       Table::pct(s.peak_slowdown())});
        all_slowdowns.add(s.base_slowdown());
        all_slowdowns.add(s.peak_slowdown());
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("average overhead across all runs: %s  (paper reports 0.28%%)\n",
                Table::pct(all_slowdowns.mean()).c_str());
    std::printf("min %s / max %s per-run slowdown\n",
                Table::pct(all_slowdowns.min()).c_str(),
                Table::pct(all_slowdowns.max()).c_str());
    return 0;
}
