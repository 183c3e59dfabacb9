#include "sim/machine.hpp"

#include <array>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "sim/cpu_profile.hpp"
#include "util/error.hpp"

namespace pv::sim {
namespace {

Machine make_machine(std::uint64_t seed = 1) {
    return Machine(cometlake_i7_10510u(), seed);
}

TEST(Machine, BootsAtBaseFrequencyNominalVoltage) {
    Machine m = make_machine();
    const auto& p = m.profile();
    for (unsigned c = 0; c < m.core_count(); ++c)
        EXPECT_EQ(m.core(c).frequency(), p.freq_base);
    EXPECT_NEAR(m.package_voltage().value(),
                p.vf_curve().nominal(p.freq_base).value(), 0.01);
    EXPECT_FALSE(m.crashed());
    EXPECT_EQ(m.boot_count(), 1u);
}

TEST(Machine, FrequencySnapsToTable) {
    Machine m = make_machine();
    m.set_core_frequency(0, Megahertz{1234.0});
    EXPECT_DOUBLE_EQ(m.requested_frequency(0).value(), 1200.0);
    m.set_core_frequency(0, Megahertz{99999.0});
    EXPECT_DOUBLE_EQ(m.requested_frequency(0).value(), m.profile().freq_max.value());
    m.set_core_frequency(0, Megahertz{1.0});
    EXPECT_DOUBLE_EQ(m.requested_frequency(0).value(), m.profile().freq_min.value());
}

TEST(Machine, FrequencyLoweringIsImmediate) {
    Machine m = make_machine();
    m.set_core_frequency(0, from_ghz(0.8));
    EXPECT_DOUBLE_EQ(m.core(0).frequency().value(), 800.0);
}

TEST(Machine, FrequencyRaiseWaitsForRail) {
    Machine m = make_machine();
    m.set_all_frequencies(from_ghz(1.0));
    m.advance(milliseconds(2.0));
    m.set_all_frequencies(from_ghz(4.0));
    // Request recorded, effective frequency unchanged until the rail ramps.
    EXPECT_DOUBLE_EQ(m.requested_frequency(0).value(), 4000.0);
    EXPECT_DOUBLE_EQ(m.core(0).frequency().value(), 1000.0);
    m.advance_to(m.rail_settle_time());
    EXPECT_DOUBLE_EQ(m.core(0).frequency().value(), 4000.0);
    // And the rail is at the new nominal.
    EXPECT_NEAR(m.package_voltage().value(),
                m.profile().vf_curve().nominal(from_ghz(4.0)).value(), 0.5);
}

TEST(Machine, RaiseGatesOnTotalRailIncludingOffset) {
    Machine m = make_machine();
    m.set_all_frequencies(from_ghz(1.0));
    m.advance(milliseconds(2.0));
    // Park a deep offset, then command it back up and raise frequency:
    // the switch must wait for the offset restore, not just the base rail.
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-200.0}, VoltagePlane::Core));
    m.advance_to(m.rail_settle_time());
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-20.0}, VoltagePlane::Core));
    m.set_all_frequencies(from_ghz(3.0));
    m.advance_to(m.rail_settle_time());
    EXPECT_DOUBLE_EQ(m.core(0).frequency().value(), 3000.0);
    const double expected =
        m.profile().vf_curve().nominal(from_ghz(3.0)).value() - 20.0;
    EXPECT_NEAR(m.package_voltage().value(), expected, 1.0);
    EXPECT_FALSE(m.crashed());
}

TEST(Machine, PerfStatusReportsRatioAndVoltage) {
    Machine m = make_machine();
    m.set_all_frequencies(from_ghz(1.8));
    m.advance_to(m.rail_settle_time());
    const std::uint64_t perf = m.read_msr(0, kMsrPerfStatus);
    EXPECT_EQ((perf >> 8) & 0xFF, 18u);
    const double volts = static_cast<double>((perf >> 32) & 0xFFFF) / 8192.0;
    EXPECT_NEAR(volts * 1000.0, m.package_voltage().value(), 0.2);
}

TEST(Machine, PerfCtlReadsBackRequestedRatio) {
    Machine m = make_machine();
    m.write_msr(2, kMsrPerfCtl, 36ULL << 8);
    EXPECT_EQ((m.read_msr(2, kMsrPerfCtl) >> 8) & 0xFF, 36u);
    EXPECT_DOUBLE_EQ(m.requested_frequency(2).value(), 3600.0);
}

TEST(Machine, OcmWriteDrivesRegulatorAndReadsBack) {
    Machine m = make_machine();
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-50.0}, VoltagePlane::Core));
    const auto req = decode_offset(m.read_msr(1, kMsrOcMailbox));
    ASSERT_TRUE(req.has_value());
    EXPECT_NEAR(req->offset.value(), -50.0, 1.0);
    m.advance_to(m.rail_settle_time());
    EXPECT_NEAR(m.applied_offset(VoltagePlane::Core).value(), -50.0, 1.0);
}

TEST(Machine, OcmWriteWithoutEnableBitIgnored) {
    Machine m = make_machine();
    std::uint64_t raw = encode_offset(Millivolts{-50.0}, VoltagePlane::Core);
    raw &= ~(1ULL << 32);  // clear write-enable
    m.write_msr(0, kMsrOcMailbox, raw);
    m.advance(milliseconds(1.0));
    EXPECT_DOUBLE_EQ(m.applied_offset(VoltagePlane::Core).value(), 0.0);
}

TEST(Machine, NonCorePlaneDoesNotTouchCoreRail) {
    Machine m = make_machine();
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-200.0}, VoltagePlane::Gpu));
    m.advance(milliseconds(1.0));
    EXPECT_DOUBLE_EQ(m.applied_offset(VoltagePlane::Core).value(), 0.0);
    EXPECT_NEAR(m.applied_offset(VoltagePlane::Gpu).value(), -200.0, 1.0);
    EXPECT_FALSE(m.crashed());
}

TEST(Machine, DeepUndervoltCrashes) {
    Machine m = make_machine();
    m.set_all_frequencies(m.profile().freq_max);
    m.advance_to(m.rail_settle_time());
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-300.0}, VoltagePlane::Core));
    m.advance(milliseconds(2.0));
    EXPECT_TRUE(m.crashed());
    EXPECT_FALSE(m.crash_reason().empty());
    EXPECT_GT(m.crash_time().value(), 0);
}

TEST(Machine, CrashedMachineFreezes) {
    Machine m = make_machine();
    m.crash("test crash");
    const Picoseconds t = m.now();
    m.advance(milliseconds(5.0));
    EXPECT_EQ(m.now().value(), t.value());
    EXPECT_FALSE(m.write_msr(0, kMsrPerfCtl, 18ULL << 8));
    const BatchResult r = m.run_batch(0, InstrClass::Imul, 1000);
    EXPECT_TRUE(r.crashed);
    EXPECT_EQ(r.ops_done, 0u);
}

TEST(Machine, RebootRestoresDefaultsAndFiresCallbacks) {
    Machine m = make_machine();
    int resets = 0;
    m.on_reset([&] { ++resets; });
    m.set_all_frequencies(m.profile().freq_max);
    m.advance_to(m.rail_settle_time());
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-300.0}, VoltagePlane::Core));
    m.advance(milliseconds(2.0));
    ASSERT_TRUE(m.crashed());
    const Picoseconds crash_at = m.now();
    m.reboot();
    EXPECT_FALSE(m.crashed());
    EXPECT_EQ(m.boot_count(), 2u);
    EXPECT_EQ(resets, 1);
    EXPECT_EQ(m.now().value(), (crash_at + m.reboot_delay()).value());
    EXPECT_DOUBLE_EQ(m.core(0).frequency().value(), m.profile().freq_base.value());
    EXPECT_DOUBLE_EQ(m.regulator().target(VoltagePlane::Core).value(), 0.0);
}

TEST(Machine, RunBatchAccountsOpsAndTime) {
    Machine m = make_machine();
    m.set_all_frequencies(from_ghz(2.0));
    m.advance_to(m.rail_settle_time());
    const Picoseconds before = m.now();
    const BatchResult r = m.run_batch(1, InstrClass::Imul, 1'000'000);
    EXPECT_EQ(r.ops_done, 1'000'000u);
    EXPECT_EQ(r.faults, 0u) << "nominal voltage must not fault";
    EXPECT_FALSE(r.crashed);
    // 1e6 ops at 2 GHz, 1 cycle each = 500 us.
    EXPECT_NEAR((m.now() - before).microseconds(), 500.0, 5.0);
    EXPECT_EQ(m.core(1).instructions_retired(), 1'000'000u);
}

TEST(Machine, RunBatchFaultsInUnsafeBand) {
    Machine m = make_machine();
    m.set_all_frequencies(m.profile().freq_max);
    m.advance_to(m.rail_settle_time());
    const Millivolts onset =
        m.fault_model().onset_offset(m.profile().freq_max, InstrClass::Imul);
    m.write_msr(0, kMsrOcMailbox,
                encode_offset(onset - Millivolts{10.0}, VoltagePlane::Core));
    m.advance_to(m.rail_settle_time());
    ASSERT_FALSE(m.crashed());
    const BatchResult r = m.run_batch(1, InstrClass::Imul, 1'000'000);
    EXPECT_GT(r.faults, 0u);
}

TEST(Machine, FaultyImulCorrectAtNominal) {
    Machine m = make_machine();
    const ImulResult r = m.faulty_imul(0, 123456789ULL, 987654321ULL);
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(r.value, 123456789ULL * 987654321ULL);
}

TEST(Machine, WriteHookIgnoreBlocksWrite) {
    Machine m = make_machine();
    const std::size_t token = m.add_write_hook(
        [](unsigned, std::uint32_t addr, std::uint64_t&) {
            return addr == kMsrOcMailbox ? MsrWriteAction::Ignore : MsrWriteAction::Allow;
        });
    EXPECT_FALSE(
        m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-50.0}, VoltagePlane::Core)));
    m.advance(milliseconds(1.0));
    EXPECT_DOUBLE_EQ(m.applied_offset(VoltagePlane::Core).value(), 0.0);
    m.remove_write_hook(token);
    EXPECT_TRUE(
        m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-50.0}, VoltagePlane::Core)));
}

TEST(Machine, WriteHookMayMutateValue) {
    Machine m = make_machine();
    m.add_write_hook([](unsigned, std::uint32_t addr, std::uint64_t& value) {
        if (addr == kMsrOcMailbox) value = encode_offset(Millivolts{-10.0}, VoltagePlane::Core);
        return MsrWriteAction::Allow;
    });
    m.write_msr(0, kMsrOcMailbox, encode_offset(Millivolts{-250.0}, VoltagePlane::Core));
    m.advance_to(m.rail_settle_time());
    EXPECT_NEAR(m.applied_offset(VoltagePlane::Core).value(), -10.0, 1.0);
}

TEST(Machine, StealDelaysBatch) {
    Machine m = make_machine();
    m.set_all_frequencies(from_ghz(2.0));
    m.advance_to(m.rail_settle_time());
    m.add_steal(1, Cycles{200'000});  // 100 us at 2 GHz
    const Picoseconds before = m.now();
    (void)m.run_batch(1, InstrClass::Alu, 1'000'000);  // 500 us of work
    EXPECT_NEAR((m.now() - before).microseconds(), 600.0, 10.0);
}

TEST(Machine, AdvanceIntoPastThrows) {
    Machine m = make_machine();
    m.advance(microseconds(10.0));
    EXPECT_THROW(m.advance_to(Picoseconds{0}), SimError);
}

TEST(Machine, CoreIdBoundsChecked) {
    Machine m = make_machine();
    EXPECT_THROW((void)m.core(99), ConfigError);
    EXPECT_THROW(m.set_core_frequency(99, from_ghz(1.0)), ConfigError);
    EXPECT_THROW((void)m.read_msr(99, kMsrPerfStatus), ConfigError);
}

TEST(Machine, BadCpiRejectedBeforeAnyStateChange) {
    // A sleeping op core with stolen time pending: any wake-up, steal
    // drain, RNG draw or energy retire before the check moves the hash.
    Machine m = make_machine();
    m.set_all_frequencies(from_ghz(2.0));
    m.advance_to(m.rail_settle_time());
    m.add_steal(1, Cycles{10'000});
    m.enter_cstate(1, CState::C1);
    const std::uint64_t before = m.state_hash();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double cpi : {-1.0, 0.0, -0.0, std::nan(""), inf, -inf}) {
        EXPECT_THROW((void)m.execute_op(1, InstrClass::Imul, cpi), ConfigError) << cpi;
        EXPECT_EQ(m.state_hash(), before) << "execute_op, cpi " << cpi;
        EXPECT_THROW((void)m.run_batch(1, InstrClass::Imul, 100, cpi), ConfigError) << cpi;
        EXPECT_EQ(m.state_hash(), before) << "run_batch, cpi " << cpi;
    }
    EXPECT_NO_THROW((void)m.execute_op(1, InstrClass::Imul, 0.5));
    EXPECT_NE(m.state_hash(), before);
}

TEST(Machine, OverflowingWorkRejectedBeforeAnyStateChange) {
    // Finite but too much work: an op whose duration, a batch whose
    // window or a cpi so small that a window's op count overflows the
    // int64/uint64 casts.  Each throws before touching the machine, which
    // works on afterwards.
    Machine m = make_machine();
    m.set_all_frequencies(from_ghz(2.0));
    m.advance_to(m.rail_settle_time());
    m.add_steal(1, Cycles{10'000});
    m.enter_cstate(1, CState::C1);
    const std::uint64_t before = m.state_hash();
    const std::array<InstrClass, 3> run{InstrClass::Load, InstrClass::Imul, InstrClass::Alu};
    for (const double cpi : {1e300, 1e18, std::numeric_limits<double>::max()}) {
        EXPECT_THROW((void)m.execute_op(1, InstrClass::Imul, cpi), ConfigError) << cpi;
        EXPECT_EQ(m.state_hash(), before) << "execute_op, cpi " << cpi;
        EXPECT_THROW((void)m.execute_ops(1, run, cpi), ConfigError) << cpi;
        EXPECT_EQ(m.state_hash(), before) << "execute_ops, cpi " << cpi;
        EXPECT_THROW((void)m.run_batch(1, InstrClass::Imul, 1, cpi), ConfigError) << cpi;
        EXPECT_EQ(m.state_hash(), before) << "run_batch, cpi " << cpi;
    }
    for (const std::uint64_t n : {std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
        EXPECT_THROW((void)m.run_batch(1, InstrClass::Imul, n), ConfigError) << n;
        EXPECT_EQ(m.state_hash(), before) << "run_batch, " << n << " ops";
    }
    EXPECT_THROW((void)m.run_batch(1, InstrClass::Imul, 100, 1e-300), ConfigError);
    EXPECT_EQ(m.state_hash(), before) << "run_batch, cpi 1e-300";

    // A tiny cpi is still a 1 ps op for execute_op; a large run_batch
    // that fits the clock runs.
    EXPECT_NO_THROW((void)m.execute_op(1, InstrClass::Imul, 1e-300));
    EXPECT_NE(m.state_hash(), before);
    EXPECT_EQ(m.run_batch(1, InstrClass::Alu, 1'000'000, 1e6).ops_done, 1'000'000u);
}

TEST(Machine, VoltageOffsetLimitIsPackageScoped) {
    Machine m = make_machine();
    m.write_msr(3, kMsrVoltageOffsetLimit, 0xABCDULL);
    EXPECT_EQ(m.read_msr(0, kMsrVoltageOffsetLimit), 0xABCDULL);
    EXPECT_EQ(m.read_msr(2, kMsrVoltageOffsetLimit), 0xABCDULL);
}

TEST(Machine, DeterministicForSeed) {
    auto run = [](std::uint64_t seed) {
        Machine m(cometlake_i7_10510u(), seed);
        m.set_all_frequencies(m.profile().freq_max);
        m.advance_to(m.rail_settle_time());
        const Millivolts onset =
            m.fault_model().onset_offset(m.profile().freq_max, InstrClass::Imul);
        m.write_msr(0, kMsrOcMailbox,
                    encode_offset(onset - Millivolts{8.0}, VoltagePlane::Core));
        m.advance_to(m.rail_settle_time());
        return m.run_batch(1, InstrClass::Imul, 500'000).faults;
    };
    EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace pv::sim
