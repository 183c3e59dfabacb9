#include "os/kernel.hpp"

#include <gtest/gtest.h>

#include <limits>

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

TEST(Cpupower, FrequencySetPinsAllCpus) {
    Fixture fx;
    Cpupower cpupower(fx.machine);
    const auto requested = [&fx](unsigned c) { return fx.machine.requested_frequency(c).value(); };
    cpupower.frequency_set(from_ghz(1.2));
    for (unsigned c = 0; c < fx.machine.core_count(); ++c) EXPECT_DOUBLE_EQ(requested(c), 1200.0);
    cpupower.frequency_set(2, from_ghz(2.0));
    EXPECT_DOUBLE_EQ(requested(2), 2000.0);
    EXPECT_DOUBLE_EQ(requested(1), 1200.0);
    EXPECT_THROW(cpupower.frequency_set(fx.machine.core_count(), from_ghz(1.0)), ConfigError);

    // A non-finite frequency is rejected before any PERF_CTL write.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(cpupower.frequency_set(Megahertz{bad}), ConfigError) << bad;
        EXPECT_THROW(cpupower.frequency_set(3, Megahertz{bad}), ConfigError) << bad;
        for (unsigned c = 0; c < fx.machine.core_count(); ++c)
            EXPECT_DOUBLE_EQ(requested(c), c == 2 ? 2000.0 : 1200.0) << bad;
    }
    // Finite values outside the profile's range clamp to it (Comet Lake:
    // 0.4-4.9 GHz).
    cpupower.frequency_set(Megahertz{-1.0});
    for (unsigned c = 0; c < fx.machine.core_count(); ++c) EXPECT_DOUBLE_EQ(requested(c), 400.0);
    cpupower.frequency_set(Megahertz{1e300});
    for (unsigned c = 0; c < fx.machine.core_count(); ++c) EXPECT_DOUBLE_EQ(requested(c), 4900.0);
}

}  // namespace
}  // namespace pv::os
