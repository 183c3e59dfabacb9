// Cache-plane (plane 2) fault surface and its defense coverage.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/plundervolt.hpp"
#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"

namespace pv::sim {
namespace {

// A cache-plane offset deep enough to fault loads at fmax, shallow
// enough not to crash: the load path factor (0.93) scales the core-plane
// band boundaries by design.
Millivolts cache_fault_offset(const Machine& m) {
    const Megahertz f = m.profile().freq_max;
    const Millivolts onset = m.fault_model().onset_offset(f, InstrClass::Load);
    return onset - Millivolts{6.0};
}

TEST(CachePlane, CacheUndervoltFaultsLoadsNotImuls) {
    Machine m(cometlake_i7_10510u(), 301);
    m.set_all_frequencies(m.profile().freq_max);
    m.advance_to(m.rail_settle_time());
    m.write_msr(0, kMsrOcMailbox,
                encode_offset(cache_fault_offset(m), VoltagePlane::Cache));
    m.advance_to(m.rail_settle_time());
    ASSERT_FALSE(m.crashed());

    const BatchResult loads = m.run_batch(1, InstrClass::Load, 1'000'000);
    EXPECT_GT(loads.faults, 0u) << "loads ride the cache rail";
    const BatchResult imuls = m.run_batch(1, InstrClass::Imul, 1'000'000);
    EXPECT_EQ(imuls.faults, 0u) << "the core rail is untouched";
}

TEST(CachePlane, CoreUndervoltDoesNotFaultLoads) {
    Machine m(cometlake_i7_10510u(), 302);
    m.set_all_frequencies(m.profile().freq_max);
    m.advance_to(m.rail_settle_time());
    const Millivolts imul_onset =
        m.fault_model().onset_offset(m.profile().freq_max, InstrClass::Imul);
    m.write_msr(0, kMsrOcMailbox,
                encode_offset(imul_onset - Millivolts{6.0}, VoltagePlane::Core));
    m.advance_to(m.rail_settle_time());
    ASSERT_FALSE(m.crashed());
    EXPECT_EQ(m.run_batch(1, InstrClass::Load, 500'000).faults, 0u);
    EXPECT_GT(m.run_batch(1, InstrClass::Imul, 500'000).faults, 0u);
}

TEST(CachePlane, DeepCacheUndervoltCrashes) {
    Machine m(cometlake_i7_10510u(), 303);
    m.set_all_frequencies(m.profile().freq_max);
    m.advance_to(m.rail_settle_time());
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-300.0}, VoltagePlane::Cache));
    m.advance(milliseconds(2.0));
    EXPECT_TRUE(m.crashed());
    EXPECT_NE(m.crash_reason().find("cache"), std::string::npos);
}

TEST(CachePlane, MailboxReadbackReportsDeepestPlane) {
    Machine m(cometlake_i7_10510u(), 304);
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-40.0}, VoltagePlane::Core));
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-120.0}, VoltagePlane::Cache));
    const auto req = decode_offset(m.read_msr(0, kMsrOcMailbox));
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->plane, VoltagePlane::Cache);
    EXPECT_NEAR(req->offset.value(), -120.0, 1.0);

    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-200.0}, VoltagePlane::Core));
    const auto req2 = decode_offset(m.read_msr(0, kMsrOcMailbox));
    ASSERT_TRUE(req2.has_value());
    EXPECT_EQ(req2->plane, VoltagePlane::Core);
}

TEST(CachePlane, PlundervoltCacheVariantWeaponizesUnprotected) {
    Machine m(cometlake_i7_10510u(), 305);
    os::Kernel kernel(m);
    attack::PlundervoltConfig config;
    config.plane = VoltagePlane::Cache;
    attack::Plundervolt atk(config);
    const attack::AttackResult r = atk.run(kernel);
    EXPECT_TRUE(r.weaponized);
    EXPECT_NE(r.weaponization.find("cache-plane"), std::string::npos);
}

TEST(CachePlane, PollingModuleRestoresTheOffendingPlane) {
    Machine m(cometlake_i7_10510u(), 306);
    os::Kernel kernel(m);
    plugvolt::Protector protector(kernel, pv::test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);

    os::Cpupower cpupower(m);
    cpupower.frequency_set(m.profile().freq_max);
    m.advance_to(m.rail_settle_time());
    kernel.msr().ioctl_wrmsr(0, 0, kMsrOcMailbox,
                             encode_offset(Millivolts{-200.0}, VoltagePlane::Cache));
    m.advance(milliseconds(1.0));

    EXPECT_GE(protector.polling_module()->metrics().detections, 1u);
    EXPECT_FALSE(m.crashed());
    EXPECT_GT(m.regulator().target(VoltagePlane::Cache).value(), -100.0)
        << "the CACHE plane command was repaired";
    EXPECT_EQ(m.run_batch(1, InstrClass::Load, 500'000).faults, 0u);
}

TEST(CachePlane, PollingModuleBlocksCacheVariantAttack) {
    Machine m(cometlake_i7_10510u(), 307);
    os::Kernel kernel(m);
    plugvolt::Protector protector(kernel, pv::test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::KernelModule);
    attack::PlundervoltConfig config;
    config.plane = VoltagePlane::Cache;
    attack::Plundervolt atk(config);
    const attack::AttackResult r = atk.run(kernel);
    EXPECT_FALSE(r.weaponized);
    EXPECT_EQ(r.faults_observed, 0u);
}

TEST(CachePlane, VendorDeploymentsGuardCachePlaneToo) {
    for (const auto level :
         {plugvolt::DeploymentLevel::Microcode, plugvolt::DeploymentLevel::HardwareMsr}) {
        Machine m(cometlake_i7_10510u(), 308);
        os::Kernel kernel(m);
        plugvolt::Protector protector(kernel, pv::test::comet_map());
        protector.deploy(level);
        m.set_all_frequencies(m.profile().freq_max);
        m.advance_to(m.rail_settle_time());
        kernel.msr().ioctl_wrmsr(0, 0, kMsrOcMailbox,
                                 encode_offset(Millivolts{-250.0}, VoltagePlane::Cache));
        m.advance(milliseconds(1.0));
        EXPECT_FALSE(m.crashed()) << plugvolt::to_string(level);
        EXPECT_EQ(m.run_batch(1, InstrClass::Load, 1'000'000).faults, 0u)
            << plugvolt::to_string(level);
    }
}

TEST(CachePlane, GpuPlaneStaysInertAndUnguarded) {
    // Planes without a modeled fault path are left alone (documented
    // limitation matching the paper's plane-0 characterization).
    Machine m(cometlake_i7_10510u(), 309);
    os::Kernel kernel(m);
    plugvolt::Protector protector(kernel, pv::test::comet_map());
    protector.deploy(plugvolt::DeploymentLevel::Microcode);
    EXPECT_TRUE(m.write_msr(0, kMsrOcMailbox,
                            encode_offset(Millivolts{-250.0}, VoltagePlane::Gpu)));
    m.advance(milliseconds(1.0));
    EXPECT_FALSE(m.crashed());
}

}  // namespace
}  // namespace pv::sim
