// Algo. 3 countermeasure tests.
#include "plugvolt/polling_module.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "os/cpupower.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace pv::plugvolt {
namespace {

struct Fixture : test::MachineRig {
    explicit Fixture(PollingConfig config = {}, std::uint64_t seed = 31)
        : MachineRig(seed),
          module(std::make_shared<PollingModule>(test::comet_map(), config)) {
        kernel.load_module(module);
    }
    std::shared_ptr<PollingModule> module;
};

TEST(PollingModule, RejectsBadConfig) {
    PollingConfig config;
    config.interval = Picoseconds{0};
    EXPECT_THROW(PollingModule(test::comet_map(), config), ConfigError);
    SafeStateMap empty("x", Millivolts{-300.0});
    EXPECT_THROW(PollingModule(empty, PollingConfig{}), ConfigError);
}

TEST(PollingModule, RefusesAGuardBandThatDisablesDetection) {
    // A NaN guard classifies every faulting row Safe and a negative one
    // moves detection below the onset: either lets an attacker parked
    // 10 mV past the 4.9 GHz onset go undetected.  Guard 0 stays valid.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -20.0}) {
        PollingConfig config;
        config.guard_band = Millivolts{bad};
        EXPECT_THROW(PollingModule(test::comet_map(), config), ConfigError) << bad;
    }
    PollingConfig zero;
    zero.guard_band = Millivolts{0.0};
    EXPECT_NO_THROW(PollingModule(test::comet_map(), zero));
}

TEST(PollingModule, PollsEveryCoreEveryInterval) {
    Fixture fx;
    fx.machine.advance(milliseconds(1.0));
    // 4 cores x 20 wakeups of the default 50 us interval.
    EXPECT_EQ(fx.module->metrics().polls, 80u);
    EXPECT_EQ(fx.module->metrics().detections, 0u);
}

TEST(PollingModule, DetectsAndRestoresUnsafeCommand) {
    Fixture fx;
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(fx.machine.profile().freq_max);
    fx.machine.advance_to(fx.machine.rail_settle_time());

    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-200.0},
                                                   sim::VoltagePlane::Core));
    fx.machine.advance(milliseconds(1.0));

    EXPECT_GE(fx.module->metrics().detections, 1u);
    EXPECT_GE(fx.module->metrics().restore_writes, 1u);
    EXPECT_FALSE(fx.machine.crashed());
    // The commanded target ends up at the per-frequency safe limit.
    const auto req = sim::decode_offset(fx.machine.read_msr(0, sim::kMsrOcMailbox));
    ASSERT_TRUE(req.has_value());
    const Millivolts limit =
        fx.module->map().safe_limit(fx.machine.profile().freq_max,
                                    fx.module->config().guard_band);
    EXPECT_NEAR(req->offset.value(), limit.value(), 1.5);
}

TEST(PollingModule, RailNeverReachesUnsafeDepth) {
    Fixture fx;
    os::Cpupower cpupower(fx.machine);
    const Megahertz fmax = fx.machine.profile().freq_max;
    cpupower.frequency_set(fmax);
    fx.machine.advance_to(fx.machine.rail_settle_time());

    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-250.0},
                                                   sim::VoltagePlane::Core));
    const Millivolts onset = fx.module->map().safe_limit(fmax, Millivolts{0.0});
    // Track the applied offset through the whole episode.
    Millivolts deepest{0.0};
    for (int i = 0; i < 500; ++i) {
        fx.machine.advance(microseconds(2.0));
        deepest = std::min(deepest, fx.machine.applied_offset(sim::VoltagePlane::Core));
    }
    EXPECT_FALSE(fx.machine.crashed());
    EXPECT_GT(deepest, onset) << "rail must never cross the fault onset";
}

TEST(PollingModule, BenignSafeUndervoltLeftAlone) {
    Fixture fx;
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(from_ghz(1.2));  // onset is ~-296 mV here
    fx.machine.advance_to(fx.machine.rail_settle_time());

    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-150.0},
                                                   sim::VoltagePlane::Core));
    fx.machine.advance(milliseconds(2.0));

    EXPECT_EQ(fx.module->metrics().detections, 0u)
        << "a benign, safe undervolt must keep working (the paper's headline feature)";
    EXPECT_NEAR(fx.machine.applied_offset(sim::VoltagePlane::Core).value(), -150.0, 1.0);
}

TEST(PollingModule, RestoreZeroPolicy) {
    PollingConfig config;
    config.restore = RestorePolicy::RestoreZero;
    Fixture fx(config);
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(fx.machine.profile().freq_max);
    fx.machine.advance_to(fx.machine.rail_settle_time());
    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-200.0},
                                                   sim::VoltagePlane::Core));
    fx.machine.advance(milliseconds(1.0));
    const auto req = sim::decode_offset(fx.machine.read_msr(0, sim::kMsrOcMailbox));
    ASSERT_TRUE(req.has_value());
    EXPECT_DOUBLE_EQ(req->offset.value(), 0.0);
}

TEST(PollingModule, MaximalSafePolicyClampsEvenAtLowFrequency) {
    PollingConfig config;
    config.restore = RestorePolicy::ClampToMaximalSafe;
    Fixture fx(config);
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(from_ghz(1.2));
    fx.machine.advance_to(fx.machine.rail_settle_time());
    // -150 mV is safe at 1.2 GHz but beyond the maximal safe state:
    // under this policy it gets clamped anyway.
    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-150.0},
                                                   sim::VoltagePlane::Core));
    fx.machine.advance(milliseconds(1.0));
    EXPECT_GE(fx.module->metrics().detections, 1u);
    const auto req = sim::decode_offset(fx.machine.read_msr(0, sim::kMsrOcMailbox));
    ASSERT_TRUE(req.has_value());
    EXPECT_NEAR(req->offset.value(),
                fx.module->map().maximal_safe_offset(config.guard_band).value(), 1.5);
}

TEST(PollingModule, CancelsDangerousFrequencyRaise) {
    Fixture fx;
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(from_ghz(1.2));
    fx.machine.advance_to(fx.machine.rail_settle_time());
    // Park deep-but-safe for 1.2 GHz, then request max (VoltJockey shape).
    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-200.0},
                                                   sim::VoltagePlane::Core));
    fx.machine.advance_to(fx.machine.rail_settle_time() + microseconds(100.0));
    ASSERT_EQ(fx.module->metrics().detections, 0u);

    cpupower.frequency_set(fx.machine.profile().freq_max);
    fx.machine.advance(milliseconds(2.0));

    EXPECT_GE(fx.module->metrics().freq_drops, 1u);
    EXPECT_FALSE(fx.machine.crashed());
    // The raise was cancelled or completed only once safe: the effective
    // pair must be safe now.
    const Megahertz eff = fx.machine.core(1).frequency();
    const Millivolts applied = fx.machine.applied_offset(sim::VoltagePlane::Core);
    EXPECT_EQ(fx.module->map().classify(eff, applied), StateClass::Safe);
}

TEST(PollingModule, SingleThreadLayoutAlsoWorks) {
    PollingConfig config;
    config.per_core_threads = false;
    Fixture fx(config);
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(fx.machine.profile().freq_max);
    fx.machine.advance_to(fx.machine.rail_settle_time());
    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-200.0},
                                                   sim::VoltagePlane::Core));
    fx.machine.advance(milliseconds(1.0));
    EXPECT_GE(fx.module->metrics().detections, 1u);
    EXPECT_FALSE(fx.machine.crashed());
    // Cross-core polling pays IPIs: the single poller's core absorbs all
    // the stolen time.
    EXPECT_GT(fx.machine.core(0).total_steal().value(), 0);
    EXPECT_EQ(fx.machine.core(2).total_steal().value(), 0);
}

TEST(PollingModule, UnloadStopsPolling) {
    Fixture fx;
    fx.machine.advance(milliseconds(1.0));
    const std::uint64_t polls = fx.module->metrics().polls;
    EXPECT_TRUE(fx.kernel.unload_module(PollingModule::kModuleName));
    fx.machine.advance(milliseconds(1.0));
    EXPECT_EQ(fx.module->metrics().polls, polls);
}

TEST(PollingModule, SurvivesRebootAndKeepsProtecting) {
    Fixture fx;
    fx.machine.crash("induced");
    fx.machine.reboot();
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(fx.machine.profile().freq_max);
    fx.machine.advance_to(fx.machine.rail_settle_time());
    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-200.0},
                                                   sim::VoltagePlane::Core));
    fx.machine.advance(milliseconds(1.0));
    EXPECT_GE(fx.module->metrics().detections, 1u);
    EXPECT_FALSE(fx.machine.crashed());
}

TEST(PollingModule, MetricsTimestampDetection) {
    Fixture fx;
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(fx.machine.profile().freq_max);
    fx.machine.advance_to(fx.machine.rail_settle_time());
    const Picoseconds injected = fx.machine.now();
    fx.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                sim::encode_offset(Millivolts{-200.0},
                                                   sim::VoltagePlane::Core));
    fx.machine.advance(milliseconds(1.0));
    ASSERT_GE(fx.module->metrics().detections, 1u);
    const Picoseconds detected = fx.module->metrics().last_detection;
    EXPECT_GT(detected, injected);
    // Detection latency is bounded by one poll interval.
    EXPECT_LE((detected - injected).value(), fx.module->config().interval.value() * 2);
}

}  // namespace
}  // namespace pv::plugvolt
