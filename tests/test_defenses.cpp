// Baseline-defense tests: Intel's access-control patch and Minefield.
#include <gtest/gtest.h>

#include "defenses/access_control.hpp"
#include "defenses/minefield.hpp"
#include "sgx/runtime.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"

namespace pv::defense {
namespace {

struct Fixture {
    sim::Machine machine{sim::cometlake_i7_10510u(), 61};
    os::Kernel kernel{machine};
    sgx::SgxRuntime runtime{kernel};
};

TEST(AccessControl, BlocksOcmWhileEnclaveLoaded) {
    Fixture fx;
    AccessControl patch(fx.machine, fx.runtime);
    patch.install();

    auto enclave = fx.runtime.create_enclave("victim", 1);
    EXPECT_FALSE(fx.machine.write_msr(
        0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-50.0}, sim::VoltagePlane::Core)));
    EXPECT_EQ(patch.blocked_writes(), 1u);
}

TEST(AccessControl, BlocksBenignUndervoltToo) {
    // The paper's core criticism: a completely benign, safe undervolt
    // from a non-SGX process is denied while any enclave exists.
    Fixture fx;
    AccessControl patch(fx.machine, fx.runtime);
    patch.install();
    auto enclave = fx.runtime.create_enclave("some-other-tenant", 2);

    const bool benign_allowed = fx.machine.write_msr(
        0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-30.0}, sim::VoltagePlane::Core));
    EXPECT_FALSE(benign_allowed);
}

TEST(AccessControl, AllowsOcmWithoutEnclaves) {
    Fixture fx;
    AccessControl patch(fx.machine, fx.runtime);
    patch.install();
    EXPECT_TRUE(fx.machine.write_msr(
        0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-30.0}, sim::VoltagePlane::Core)));
}

TEST(AccessControl, SetsAttestationBit) {
    Fixture fx;
    AccessControl patch(fx.machine, fx.runtime);
    patch.install();
    EXPECT_TRUE(fx.runtime.ocm_disabled_bit());
    patch.uninstall();
    EXPECT_FALSE(fx.runtime.ocm_disabled_bit());
}

TEST(AccessControl, UninstallRestoresAccess) {
    Fixture fx;
    AccessControl patch(fx.machine, fx.runtime);
    patch.install();
    auto enclave = fx.runtime.create_enclave("victim", 1);
    patch.uninstall();
    EXPECT_TRUE(fx.machine.write_msr(
        0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-30.0}, sim::VoltagePlane::Core)));
}

TEST(Minefield, InsertsTrapAfterEveryCheckableMul) {
    Minefield pass;
    const sgx::Program original = sgx::make_mul_chain(3, 5, 8);
    const sgx::Program instrumented = pass.instrument(original);

    EXPECT_EQ(pass.stats().original_instructions, original.size());
    EXPECT_EQ(pass.stats().traps_inserted, 8u);  // one per imul
    EXPECT_EQ(instrumented.size(), original.size() + 8u);
    EXPECT_NEAR(pass.stats().overhead(), 8.0 / static_cast<double>(original.size()), 1e-12);

    // Each trap directly follows its multiply.
    for (std::size_t i = 0; i + 1 < instrumented.size(); ++i) {
        if (instrumented[i].mul_ops() && !instrumented[i].is_trap()) {
            EXPECT_TRUE(instrumented[i + 1].is_trap()) << "at " << i;
        }
    }
}

TEST(Minefield, SkipsAliasedMultiplies) {
    Minefield pass;
    sgx::Program p;
    p.push_back(sgx::make_load_imm(0, 3));
    p.push_back(sgx::make_imul(0, 0, 0));  // dst aliases inputs: not checkable
    const sgx::Program out = pass.instrument(p);
    EXPECT_EQ(pass.stats().traps_inserted, 0u);
    EXPECT_EQ(out.size(), p.size());
}

TEST(Minefield, InstrumentedProgramSameSemantics) {
    Minefield pass;
    const sgx::Program original = sgx::make_mul_chain(7, 11, 6);
    const sgx::Program instrumented = pass.instrument(original);
    EXPECT_EQ(sgx::reference_run(original), sgx::reference_run(instrumented));
}

TEST(Minefield, DoesNotDoubleInstrument) {
    Minefield pass;
    const sgx::Program once = pass.instrument(sgx::make_mul_chain(3, 5, 4));
    const sgx::Program twice = pass.instrument(once);
    EXPECT_EQ(twice.size(), once.size()) << "traps are not re-instrumented";
}

}  // namespace
}  // namespace pv::defense
