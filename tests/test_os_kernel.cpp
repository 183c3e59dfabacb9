#include "os/kernel.hpp"

#include <gtest/gtest.h>

#include "os/cpupower.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"
#include "util/error.hpp"
#include "test_helpers.hpp"

namespace pv::os {
namespace {

struct Fixture {
    sim::Machine machine{sim::cometlake_i7_10510u(), 5};
    Kernel kernel{machine};
};

TEST(Kthread, FiresPeriodically) {
    Fixture fx;
    int wakes = 0;
    fx.kernel.start_kthread({.name = "t", .cpu = 0, .period = microseconds(100.0)},
                            [&](Kernel&) { ++wakes; });
    fx.machine.advance(milliseconds(1.0));
    EXPECT_EQ(wakes, 10);
}

TEST(Kthread, WakeupStealsCycles) {
    Fixture fx;
    fx.kernel.start_kthread({.name = "t", .cpu = 2, .period = microseconds(100.0)},
                            [](Kernel&) {});
    fx.machine.advance(milliseconds(1.0));
    const std::uint64_t wake_cycles = fx.machine.profile().costs.kthread_wake_cycles;
    const Picoseconds per_wake = Cycles{wake_cycles}.at(fx.machine.core(2).frequency());
    EXPECT_EQ(fx.machine.core(2).total_steal().value(), (per_wake * 10).value());
    EXPECT_EQ(fx.machine.core(0).total_steal().value(), 0);
}

TEST(Kthread, StopPreventsFurtherWakes) {
    Fixture fx;
    int wakes = 0;
    const KthreadId id = fx.kernel.start_kthread(
        {.name = "t", .cpu = 0, .period = microseconds(100.0)}, [&](Kernel&) { ++wakes; });
    fx.machine.advance(microseconds(350.0));
    EXPECT_EQ(wakes, 3);
    fx.kernel.stop_kthread(id);
    EXPECT_FALSE(fx.kernel.kthread_running(id));
    fx.machine.advance(milliseconds(1.0));
    EXPECT_EQ(wakes, 3);
}

TEST(Kthread, SurvivesReboot) {
    Fixture fx;
    int wakes = 0;
    fx.kernel.start_kthread({.name = "t", .cpu = 0, .period = microseconds(100.0)},
                            [&](Kernel&) { ++wakes; });
    fx.machine.advance(microseconds(250.0));
    EXPECT_EQ(wakes, 2);
    fx.machine.crash("test");
    fx.machine.reboot();
    fx.machine.advance(milliseconds(1.0));
    EXPECT_EQ(wakes, 12) << "kthread must re-arm after reboot";
}

TEST(Kthread, RejectsBadOptions) {
    Fixture fx;
    EXPECT_THROW(fx.kernel.start_kthread({.name = "t", .cpu = 0, .period = Picoseconds{0}},
                                         [](Kernel&) {}),
                 ConfigError);
    EXPECT_THROW(fx.kernel.start_kthread(
                     {.name = "t", .cpu = 999, .period = microseconds(1.0)}, [](Kernel&) {}),
                 ConfigError);
}

class TestModule final : public KernelModule {
public:
    explicit TestModule(std::string name) : name_(std::move(name)) {}
    [[nodiscard]] std::string_view name() const override { return name_; }
    void init(Kernel&) override { ++inits; }
    void exit(Kernel&) override { ++exits; }
    int inits = 0, exits = 0;

private:
    std::string name_;
};

TEST(Modules, LoadUnloadLifecycle) {
    Fixture fx;
    auto mod = std::make_shared<TestModule>("demo");
    EXPECT_TRUE(fx.kernel.load_module(mod));
    EXPECT_EQ(mod->inits, 1);
    EXPECT_TRUE(fx.kernel.module_loaded("demo"));
    EXPECT_EQ(fx.kernel.lsmod(), std::vector<std::string>{"demo"});
    EXPECT_FALSE(fx.kernel.load_module(std::make_shared<TestModule>("demo")))
        << "duplicate names rejected";
    EXPECT_TRUE(fx.kernel.unload_module("demo"));
    EXPECT_EQ(mod->exits, 1);
    EXPECT_FALSE(fx.kernel.module_loaded("demo"));
    EXPECT_FALSE(fx.kernel.unload_module("demo"));
}

TEST(MsrDriver, LocalAndRemoteCosts) {
    Fixture fx;
    MsrDriver& msr = fx.kernel.msr();
    const auto& costs = fx.machine.profile().costs;
    EXPECT_EQ(msr.read_cost(false).value(), costs.rdmsr_cycles);
    EXPECT_EQ(msr.read_cost(true).value(), costs.rdmsr_cycles + costs.ipi_cycles);
    EXPECT_EQ(msr.write_cost(true).value(), costs.wrmsr_cycles + costs.ipi_cycles);

    (void)test::msr_ok(msr.try_rdmsr(0, 0, sim::kMsrPerfStatus));
    EXPECT_EQ(msr.total_cost_cycles(), costs.rdmsr_cycles);
    (void)test::msr_ok(msr.try_rdmsr(0, 3, sim::kMsrPerfStatus));
    EXPECT_EQ(msr.total_cost_cycles(), 2 * costs.rdmsr_cycles + costs.ipi_cycles);
}

TEST(MsrDriver, IoctlAddsTransitionOverhead) {
    Fixture fx;
    MsrDriver& msr = fx.kernel.msr();
    const auto& costs = fx.machine.profile().costs;
    msr.ioctl_wrmsr(1, 1, sim::kMsrOcMailbox,
                    sim::encode_offset(Millivolts{-10.0}, sim::VoltagePlane::Core));
    EXPECT_EQ(msr.total_cost_cycles(), costs.ioctl_overhead_cycles + costs.wrmsr_cycles);
    // Cost lands on the calling core as stolen time.
    EXPECT_GT(fx.machine.core(1).pending_steal().value(), 0);
}

TEST(MsrDriver, WritesGoThroughMachineSemantics) {
    Fixture fx;
    test::msr_ok(fx.kernel.msr().try_wrmsr(
        0, 0, sim::kMsrOcMailbox, sim::encode_offset(Millivolts{-30.0}, sim::VoltagePlane::Core)));
    fx.machine.advance_to(fx.machine.rail_settle_time());
    EXPECT_NEAR(fx.machine.applied_offset(sim::VoltagePlane::Core).value(), -30.0, 1.0);
}

TEST(Cpufreq, GovernorsSetFrequency) {
    Fixture fx;
    Cpufreq& cf = fx.kernel.cpufreq();
    cf.set_governor(0, Governor::Powersave);
    EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(0).value(),
                     fx.machine.profile().freq_min.value());
    cf.set_governor(0, Governor::Performance);
    EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(0).value(),
                     fx.machine.profile().freq_max.value());
}

TEST(Cpufreq, UserspaceRequiresGovernor) {
    Fixture fx;
    Cpufreq& cf = fx.kernel.cpufreq();
    EXPECT_THROW(cf.set_userspace_frequency(0, from_ghz(1.0)), ConfigError);
    cf.set_governor(0, Governor::Userspace);
    cf.set_userspace_frequency(0, from_ghz(1.0));
    EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(0).value(), 1000.0);
}

TEST(Cpufreq, PolicyLimitsClamp) {
    Fixture fx;
    Cpufreq& cf = fx.kernel.cpufreq();
    cf.set_policy_limits(0, from_ghz(1.0), from_ghz(2.0));
    cf.set_governor(0, Governor::Performance);
    EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(0).value(), 2000.0);
    cf.set_governor(0, Governor::Userspace);
    cf.set_userspace_frequency(0, from_ghz(4.9));
    EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(0).value(), 2000.0);
    EXPECT_THROW(cf.set_policy_limits(0, from_ghz(3.0), from_ghz(2.0)), ConfigError);
}

TEST(Cpufreq, OndemandFollowsLoad) {
    Fixture fx;
    Cpufreq& cf = fx.kernel.cpufreq();
    cf.set_governor(1, Governor::Ondemand);
    cf.report_load(1, 0.95);
    EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(1).value(),
                     fx.machine.profile().freq_max.value());
    cf.report_load(1, 0.0);
    EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(1).value(),
                     fx.machine.profile().freq_min.value());
    cf.report_load(1, 0.4);
    const double mid = fx.machine.requested_frequency(1).value();
    EXPECT_GT(mid, fx.machine.profile().freq_min.value());
    EXPECT_LT(mid, fx.machine.profile().freq_max.value());
    EXPECT_THROW(cf.report_load(1, 1.5), ConfigError);
}

TEST(Cpufreq, NonOndemandIgnoresLoad) {
    Fixture fx;
    Cpufreq& cf = fx.kernel.cpufreq();
    cf.set_governor(0, Governor::Performance);
    cf.report_load(0, 0.0);
    EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(0).value(),
                     fx.machine.profile().freq_max.value());
}

TEST(Cpupower, FrequencySetPinsAllCpus) {
    Fixture fx;
    Cpupower cpupower(fx.kernel.cpufreq(), fx.machine.core_count());
    cpupower.frequency_set(from_ghz(1.2));
    for (unsigned c = 0; c < fx.machine.core_count(); ++c) {
        EXPECT_DOUBLE_EQ(fx.machine.requested_frequency(c).value(), 1200.0);
        EXPECT_EQ(fx.kernel.cpufreq().governor(c), Governor::Userspace);
    }
    const auto info = cpupower.frequency_info(0);
    EXPECT_EQ(info.governor, Governor::Userspace);
    EXPECT_DOUBLE_EQ(info.hw_max.value(), fx.machine.profile().freq_max.value());
}

TEST(Cpufreq, AvailableFrequenciesMatchProfileTable) {
    Fixture fx;
    EXPECT_EQ(fx.kernel.cpufreq().available_frequencies().size(),
              fx.machine.profile().frequency_table().size());
}

}  // namespace
}  // namespace pv::os
