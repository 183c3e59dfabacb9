// Table 2 harness tests: overhead must emerge from the cycle accounting.
//
// TableTwoGolden pins every Table 2 rate bit for bit against
// tests/golden/table2_cometlake.golden.  Regoldening (after an INTENDED
// change to the rates): `PV_REGOLDEN=1 ctest -R Golden`; commit the diff
// alongside the change that explains it.
#include "workload/spec_suite.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace pv::workload {
namespace {

SpecSuiteConfig quick_config() {
    SpecSuiteConfig config;
    config.units = 40;  // keep the test fast; the bench uses more
    return config;
}

TEST(SpecSuite, MeasureRateIsPositiveAndDeterministic) {
    SpecSuite suite(sim::cometlake_i7_10510u(), quick_config());
    const SpecBenchmark& x264 = table2_benchmark("525.x264_r");
    const auto& map = test::comet_map();
    const double a = suite.measure_rate(x264, from_ghz(4.6), false, map, {}, 1.0, 100.0, 5);
    const double b = suite.measure_rate(x264, from_ghz(4.6), false, map, {}, 1.0, 100.0, 5);
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(SpecSuite, PollingCostsThroughputButLittle) {
    SpecSuiteConfig config = quick_config();
    config.noise_fraction = 0.0;  // isolate the pure stolen-cycle effect
    SpecSuite suite(sim::cometlake_i7_10510u(), config);
    const auto& map = test::comet_map();
    const SpecBenchmark& bwaves = table2_benchmark("503.bwaves_r");
    const double without =
        suite.measure_rate(bwaves, from_ghz(4.6), false, map, {}, 1.0, 100.0, 9);
    const double with = suite.measure_rate(bwaves, from_ghz(4.6), true, map, {}, 1.0, 100.0, 9);
    const double slowdown = (without - with) / without;
    EXPECT_GT(slowdown, 0.0) << "polling must cost something";
    EXPECT_LT(slowdown, 0.01) << "but well under 1%";
}

TEST(SpecSuite, OverheadScalesWithPollRate) {
    SpecSuiteConfig config = quick_config();
    config.noise_fraction = 0.0;
    SpecSuite suite(sim::cometlake_i7_10510u(), config);
    const auto& map = test::comet_map();
    const SpecBenchmark& namd = table2_benchmark("508.namd_r");

    auto slowdown_at = [&](double interval_us, std::uint64_t salt) {
        plugvolt::PollingConfig polling;
        polling.interval = microseconds(interval_us);
        const double without =
            suite.measure_rate(namd, from_ghz(4.6), false, map, polling, 1.0, 100.0, salt);
        const double with =
            suite.measure_rate(namd, from_ghz(4.6), true, map, polling, 1.0, 100.0, salt);
        return (without - with) / without;
    };
    const double fast = slowdown_at(25.0, 21);
    const double slow = slowdown_at(400.0, 22);
    EXPECT_GT(fast, 2.0 * slow) << "more polls, more stolen cycles";
}

TEST(SpecSuite, FullRunReproducesTable2Shape) {
    SpecSuiteConfig config;
    config.units = 60;
    SpecSuite suite(sim::cometlake_i7_10510u(), config);
    const auto scores = suite.run(test::comet_map(), {});
    ASSERT_EQ(scores.size(), 23u);

    const auto table = table2_benchmarks();
    OnlineStats base_slowdowns, peak_slowdowns;
    for (std::size_t i = 0; i < scores.size(); ++i) {
        // Without-polling rates land on the paper anchors (within noise).
        EXPECT_NEAR(scores[i].base_rate_without, table[i].base_rate,
                    table[i].base_rate * 0.02)
            << scores[i].name;
        EXPECT_NEAR(scores[i].peak_rate_without, table[i].peak_rate,
                    table[i].peak_rate * 0.02)
            << scores[i].name;
        // Per-benchmark slowdown stays small (the paper's worst is 4.24%).
        EXPECT_LT(std::abs(scores[i].base_slowdown()), 0.05) << scores[i].name;
        base_slowdowns.add(scores[i].base_slowdown());
        peak_slowdowns.add(scores[i].peak_slowdown());
    }
    // The headline number: average overhead in the 0.28%-ish regime.
    const double mean =
        0.5 * (base_slowdowns.mean() + peak_slowdowns.mean());
    EXPECT_GT(mean, 0.0005);
    EXPECT_LT(mean, 0.006);
}

std::string hex(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// The committed golden lines; '#' lines are comments.
std::vector<std::string> read_golden(const std::string& path) {
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#') lines.push_back(line);
    return lines;
}

// bench_table2_spec_overhead's run (Comet Lake, bench::characterize's
// 5 mV map, units = 200, default polling) plus the two x264 rates that
// bench_poll_interval measures per sweep row (its suite config, 4.6 GHz,
// ref 100 s, salt 1), here at the default polling config.
TEST(SpecSuite, TableTwoGolden) {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    plugvolt::CharacterizerConfig cell;
    cell.offset_step = Millivolts{5.0};
    const plugvolt::SafeStateMap map = test::exhaustive_map(profile, cell, 0xDAC2024);
    const plugvolt::PollingConfig polling;

    SpecSuiteConfig config;
    config.units = 200;
    const auto scores = SpecSuite(profile, config).run(map, polling);
    std::vector<std::string> lines;
    for (const SpecScore& s : scores)
        lines.push_back(s.name + " " + hex(s.base_rate_without) + " " +
                        hex(s.base_rate_with) + " " + hex(s.peak_rate_without) + " " +
                        hex(s.peak_rate_with));

    SpecSuiteConfig sweep_config;
    sweep_config.units = 60;
    sweep_config.noise_fraction = 0.0;
    SpecSuite sweep_suite(profile, sweep_config);
    const SpecBenchmark& x264 = table2_benchmark("525.x264_r");
    const double without =
        sweep_suite.measure_rate(x264, Megahertz{4600.0}, false, map, polling, 1.0, 100.0, 1);
    const double with =
        sweep_suite.measure_rate(x264, Megahertz{4600.0}, true, map, polling, 1.0, 100.0, 1);
    lines.push_back("poll_interval.x264 " + hex(without) + " " + hex(with));

    const std::string path = std::string(PV_GOLDEN_DIR) + "/table2_cometlake.golden";
    const char* env = std::getenv("PV_REGOLDEN");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << "# Table 2 rates on Comet Lake (5 mV map, units 200, default polling), %a.\n"
            << "# Regolden after intended changes: PV_REGOLDEN=1 ctest -R Golden\n"
            << "# name base_without base_with peak_without peak_with\n"
            << "# last line: bench_poll_interval's x264 rate without and with polling\n";
        for (const std::string& l : lines) out << l << "\n";
        return;
    }
    const std::vector<std::string> committed = read_golden(path);
    ASSERT_FALSE(committed.empty()) << "missing golden file " << path
                                    << " — generate with: PV_REGOLDEN=1 ctest -R Golden";
    ASSERT_EQ(lines.size(), committed.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], committed[i])
            << "rate drifted from the committed golden; if the change is intended, "
            << "regolden with PV_REGOLDEN=1 ctest -R Golden";
}

TEST(SpecSuite, RejectsZeroUnits) {
    SpecSuiteConfig config;
    config.units = 0;
    EXPECT_THROW(SpecSuite(sim::cometlake_i7_10510u(), config), pv::ConfigError);
}

TEST(SpecSuite, RejectsBadConfig) {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const Picoseconds window : {Picoseconds{0}, Picoseconds{-1}}) {
        SpecSuiteConfig config;
        config.window = window;
        EXPECT_THROW(SpecSuite(profile, config), ConfigError) << window.value();
    }
    for (const double bonus : {0.0, -1.03, nan, inf}) {
        SpecSuiteConfig config;
        config.peak_ipc_bonus = bonus;
        EXPECT_THROW(SpecSuite(profile, config), ConfigError) << bonus;
    }
    for (const double noise : {-0.003, nan, inf}) {
        SpecSuiteConfig config;
        config.noise_fraction = noise;
        EXPECT_THROW(SpecSuite(profile, config), ConfigError) << noise;
    }

    // measure_rate rejects a bad IPC scale before it builds a machine.
    SpecSuite suite(profile, SpecSuiteConfig{});
    const SpecBenchmark& x264 = table2_benchmark("525.x264_r");
    for (const double scale : {0.0, -1.0, nan, inf})
        EXPECT_THROW((void)suite.measure_rate(x264, from_ghz(4.6), false, test::comet_map(), {},
                                              scale, 100.0, 1),
                     ConfigError)
            << scale;
}

// --- the cost table ------------------------------------------------------

// The FP block (503 … 554) then the INT block (500 … 557), each in
// ascending SPEC number, as the paper prints Table 2.
TEST(SpecSuiteFactory, Has23KernelsInTable2Order) {
    const auto table = table2_benchmarks();
    ASSERT_EQ(table.size(), 23u);
    EXPECT_STREQ(table[0].name, "503.bwaves_r");
    EXPECT_STREQ(table[13].name, "500.perlbench_r");
    EXPECT_STREQ(table[22].name, "557.xz_r");
    for (std::size_t i = 1; i < table.size(); ++i) {
        if (i == 13) continue;  // the INT block restarts the numbering
        EXPECT_LT(std::stoi(table[i - 1].name), std::stoi(table[i].name)) << table[i].name;
    }
}

TEST(SpecSuiteFactory, NamesAreUnique) {
    const auto table = table2_benchmarks();
    std::set<std::string> names;
    for (const SpecBenchmark& row : table) names.emplace(row.name);
    EXPECT_EQ(names.size(), table.size());
}

TEST(SpecSuiteFactory, LooksUpRowsByName) {
    EXPECT_EQ(&table2_benchmark("525.x264_r"), &table2_benchmarks()[18]);
    EXPECT_THROW((void)table2_benchmark("999.nope_r"), ConfigError);
}

// Parameterized over all 23 rows.
class SpecKernel : public ::testing::TestWithParam<int> {
protected:
    [[nodiscard]] const SpecBenchmark& row() const {
        return table2_benchmarks()[static_cast<std::size_t>(GetParam())];
    }
};

TEST_P(SpecKernel, CostModelIsPlausible) {
    const SpecBenchmark& b = row();
    EXPECT_GE(b.instructions_per_unit, 100'000u) << b.name;
    EXPECT_LE(b.instructions_per_unit, 10'000'000u) << b.name;
    EXPECT_GE(b.ipc, 0.5) << b.name;
    EXPECT_LE(b.ipc, 4.0) << b.name;
}

INSTANTIATE_TEST_SUITE_P(All23, SpecKernel, ::testing::Range(0, 23));

TEST(SpecKernels, IpcSpreadCoversMemoryAndComputeBound) {
    double lo = 10.0, hi = 0.0;
    for (const SpecBenchmark& b : table2_benchmarks()) {
        lo = std::min(lo, b.ipc);
        hi = std::max(hi, b.ipc);
    }
    EXPECT_LT(lo, 1.0) << "a memory-bound benchmark (mcf family) exists";
    EXPECT_GT(hi, 2.0) << "a compute-dense benchmark (x264 family) exists";
}

}  // namespace
}  // namespace pv::workload
