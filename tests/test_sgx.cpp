#include <optional>

#include <gtest/gtest.h>

#include "os/cpupower.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "sgx/program.hpp"
#include "sgx/runtime.hpp"
#include "sgx/sgx_step.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"
#include "util/error.hpp"

namespace pv::sgx {
namespace {

struct Fixture {
    sim::Machine machine{sim::cometlake_i7_10510u(), 11};
    os::Kernel kernel{machine};
    SgxRuntime runtime{kernel};
};

TEST(Program, ReferenceRunEvaluatesSemantics) {
    Program p;
    p.push_back(make_load_imm(0, 6));
    p.push_back(make_load_imm(1, 7));
    p.push_back(make_imul(2, 0, 1));
    p.push_back(make_add(3, 2, 1));
    p.push_back(make_xor(4, 3, 0));
    const auto regs = reference_run(p);
    EXPECT_EQ(regs[2], 42u);
    EXPECT_EQ(regs[3], 49u);
    EXPECT_EQ(regs[4], 49u ^ 6u);
}

TEST(Program, ReferencePrefixStopsEarly) {
    Program p = make_mul_chain(3, 5, 4);
    const auto full = reference_run(p);
    const auto prefix = reference_run_prefix(p, 3);  // loads + first imul
    EXPECT_EQ(prefix[2], 15u);
    EXPECT_NE(full[0], prefix[0]);
    EXPECT_THROW((void)reference_run_prefix(p, p.size() + 1), ConfigError);
}

TEST(Program, LastMulIndexFindsIt) {
    Program p = make_mul_chain(3, 5, 4);
    const std::size_t idx = last_mul_index(p);
    ASSERT_TRUE(p[idx].mul_ops().has_value());
    for (std::size_t i = idx + 1; i < p.size(); ++i) EXPECT_FALSE(p[i].mul_ops().has_value());
    Program no_mul{make_add(0, 1, 2)};
    EXPECT_THROW((void)last_mul_index(no_mul), ConfigError);
}

TEST(Program, MulChainMatchesManualEvaluation) {
    const Program p = make_mul_chain(0xDEAD, 0xBEEF, 2);
    std::uint64_t r0 = 0xDEAD, r1 = 0xBEEF, r2 = 0;
    for (int i = 0; i < 2; ++i) {
        r2 = r0 * r1;
        r0 = r2 ^ r1;
    }
    const auto regs = reference_run(p);
    EXPECT_EQ(regs[0], r0);
    EXPECT_EQ(regs[2], r2);
}

TEST(Program, RejectsBadRegisters) {
    EXPECT_THROW((void)make_imul(16, 0, 1), ConfigError);
    EXPECT_THROW((void)make_add(0, 16, 1), ConfigError);
}

TEST(Enclave, RunsCleanAtNominalVoltage) {
    Fixture fx;
    const Program p = make_mul_chain(123, 457, 16);
    auto enclave = fx.runtime.create_enclave("victim", 1, p);
    const EnclaveRunResult r = enclave->run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.aex_count, 0u);
    EXPECT_EQ(r.regs, reference_run(p));
}

TEST(Enclave, UndervoltFaultsEnclaveComputation) {
    Fixture fx;
    os::Cpupower cpupower(fx.machine);
    cpupower.frequency_set(fx.machine.profile().freq_max);
    fx.machine.advance_to(fx.machine.rail_settle_time());
    const Millivolts onset = fx.machine.fault_model().onset_offset(
        fx.machine.profile().freq_max, sim::InstrClass::Imul);
    fx.machine.write_msr(0, sim::kMsrOcMailbox,
                         sim::encode_offset(onset - Millivolts{12.0},
                                            sim::VoltagePlane::Core));
    fx.machine.advance_to(fx.machine.rail_settle_time());
    ASSERT_FALSE(fx.machine.crashed());

    const Program p = make_mul_chain(0x1234, 0x5678, 64);
    auto enclave = fx.runtime.create_enclave("victim", 1, p);
    const auto reference = reference_run(p);
    bool corrupted = false;
    for (int attempt = 0; attempt < 200 && !corrupted; ++attempt) {
        const EnclaveRunResult r = enclave->run();
        ASSERT_FALSE(r.machine_crashed);
        if (r.regs != reference) corrupted = true;
    }
    EXPECT_TRUE(corrupted) << "SGX isolation does not protect against DVFS faults";
}

TEST(Enclave, ActiveTrackingDuringRun) {
    Fixture fx;
    EXPECT_FALSE(fx.runtime.any_enclave_loaded());
    {
        auto enclave = fx.runtime.create_enclave("victim", 1);
        EXPECT_TRUE(fx.runtime.any_enclave_loaded());
        EXPECT_FALSE(fx.runtime.any_enclave_active());
    }
    EXPECT_FALSE(fx.runtime.any_enclave_loaded());
}

TEST(SgxStep, SingleSteppingCountsAex) {
    // An AEX after every retired instruction; without a zero-step plan
    // the entry completes.
    Fixture fx;
    const Program p = make_mul_chain(3, 5, 8);
    auto enclave = fx.runtime.create_enclave("victim", 1, p);
    SgxStep stepper({.single_step = true, .zero_step = false});
    enclave->attach_stepper(&stepper);
    const EnclaveRunResult r = enclave->run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.aex_count, p.size());
    EXPECT_EQ(r.regs, reference_run(p));
}

TEST(SgxStep, SuppressionRequiresZeroStepCapability) {
    Fixture fx;
    const Program p = make_mul_chain(3, 5, 8);

    auto enclave = fx.runtime.create_enclave("victim", 1, p);
    SgxStep no_zero({.single_step = true, .zero_step = false});
    no_zero.suppress_after(0);
    EXPECT_FALSE(no_zero.suppression_point().has_value());
    enclave->attach_stepper(&no_zero);
    const EnclaveRunResult completed = enclave->run();
    EXPECT_TRUE(completed.completed) << "without zero-step the enclave completes";
    EXPECT_EQ(completed.aex_count, p.size());

    SgxStep with_zero({.single_step = true, .zero_step = true});
    with_zero.suppress_after(3);
    EXPECT_EQ(with_zero.suppression_point(), std::optional<std::size_t>{3});
    enclave->attach_stepper(&with_zero);
    const EnclaveRunResult r = enclave->run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.suppressed);
    EXPECT_EQ(r.aex_count, 4u);
    EXPECT_EQ(r.regs, reference_run_prefix(p, 4)) << "nothing after instruction 3 retires";
}

TEST(SgxStep, NoSingleStepMeansNoHook) {
    // Without single-stepping there is no AEX hook between instructions
    // to suppress progress at: the plan has no effect, and the entry
    // completes without exits.
    Fixture fx;
    SgxStep stepper({.single_step = false, .zero_step = true});
    stepper.suppress_after(0);
    EXPECT_FALSE(stepper.suppression_point().has_value());
    auto enclave = fx.runtime.create_enclave("victim", 1, make_mul_chain(3, 5, 8));
    enclave->attach_stepper(&stepper);
    const EnclaveRunResult r = enclave->run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.aex_count, 0u);
}

TEST(Attestation, PolicyVerification) {
    AttestationReport report;
    report.features.ocm_disabled = false;
    report.features.plugvolt_module_loaded = true;

    EXPECT_TRUE(verify(report, {}).accepted);
    EXPECT_FALSE(verify(report, {.require_ocm_disabled = true}).accepted);
    EXPECT_TRUE(verify(report, {.require_plugvolt_module = true}).accepted);

    report.features.plugvolt_module_loaded = false;
    const VerifyResult r = verify(report, {.require_plugvolt_module = true});
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.reason.find("PlugVolt"), std::string::npos);
}

TEST(Attestation, MeasurementIsStablePerName) {
    EXPECT_EQ(measure_enclave("signer"), measure_enclave("signer"));
    EXPECT_NE(measure_enclave("signer"), measure_enclave("signer2"));
}

TEST(Attestation, QuoteReflectsLivePlatformState) {
    Fixture fx;
    fx.runtime.set_attested_module("plugvolt");
    auto enclave = fx.runtime.create_enclave("signer", 1);

    AttestationReport quote = fx.runtime.quote(*enclave);
    EXPECT_FALSE(quote.features.plugvolt_module_loaded) << "module not loaded yet";
    EXPECT_EQ(quote.features.microcode, fx.machine.profile().microcode);
    EXPECT_EQ(quote.mrenclave, measure_enclave("signer"));

    fx.runtime.set_ocm_disabled_bit(true);
    quote = fx.runtime.quote(*enclave);
    EXPECT_TRUE(quote.features.ocm_disabled);
}

}  // namespace
}  // namespace pv::sgx
