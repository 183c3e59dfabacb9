// MsrAuditor: the runtime audit of the 0x150/0x198 surface must catch
// forged out-of-band mailbox writes, unsafe writes that bypass the
// polling guard, out-of-range offsets, malformed encodings, and stale
// 0x198 reads — and stay silent on legitimate traffic.
#include "check/msr_auditor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "plugvolt/polling_module.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"
#include "sim/ocm.hpp"
#include "util/log.hpp"
#include "test_helpers.hpp"

namespace pv::check {
namespace {

class MsrAuditorTest : public ::testing::Test {
protected:
    MsrAuditorTest()
        : map_(test::cached_map(sim::skylake_i5_6500())),
          machine_(sim::skylake_i5_6500(), /*seed=*/0x5EED),
          kernel_(machine_) {}

    /// A (frequency, offset) pair that classifies Unsafe in the map but
    /// is shallower than the sweep floor (so only UnsafeWrite fires).
    /// Checked through the encode/decode round trip, since that is the
    /// quantized value the auditor will classify.
    [[nodiscard]] std::pair<Megahertz, Millivolts> unsafe_point() const {
        for (auto it = map_.rows().rbegin(); it != map_.rows().rend(); ++it) {
            if (it->fault_free) continue;
            const Millivolts candidate = it->onset - Millivolts{5.0};
            const auto decoded =
                sim::decode_offset(sim::encode_offset(candidate, sim::VoltagePlane::Core));
            if (decoded && decoded->offset > map_.sweep_floor() &&
                map_.is_unsafe(it->freq, decoded->offset))
                return {it->freq, candidate};
        }
        ADD_FAILURE() << "map has no unsafe cell above the floor";
        return {Megahertz{0.0}, Millivolts{0.0}};
    }

    /// Raises every core to `f` and waits out the rail so the raise
    /// actually applies (frequency raises are deferred until the rail
    /// settles; the auditor classifies at the *active* frequency).
    void raise_all_to(Megahertz f) {
        machine_.set_all_frequencies(f);
        if (machine_.rail_settle_time() > machine_.now())
            machine_.advance(machine_.rail_settle_time() - machine_.now());
        ASSERT_EQ(machine_.max_active_frequency().value(), f.value());
    }

    const plugvolt::SafeStateMap& map_;
    sim::Machine machine_;
    os::Kernel kernel_;
};

TEST_F(MsrAuditorTest, LegitimateSafeTrafficIsClean) {
    MsrAuditor auditor(kernel_, {.map = &map_});
    test::msr_ok(kernel_.msr().try_wrmsr(
        0, 0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-50.0}, sim::VoltagePlane::Core)));
    machine_.advance(machine_.rail_settle_time() - machine_.now());
    (void)test::msr_ok(kernel_.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus));
    (void)test::msr_ok(kernel_.msr().try_rdmsr(0, 0, sim::kMsrOcMailbox));
    EXPECT_TRUE(auditor.violations().empty());
    EXPECT_GE(auditor.audited_accesses(), 3u);
}

TEST_F(MsrAuditorTest, CatchesForgedOutOfBandMailboxWrite) {
    MsrAuditor auditor(kernel_, {.map = &map_});
    // The forgery: a write that reaches the machine without ever passing
    // the MSR driver — the software analogue of SVID bus injection.
    machine_.write_msr(0, sim::kMsrOcMailbox,
                       sim::encode_offset(Millivolts{-50.0}, sim::VoltagePlane::Core));
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].kind, AuditKind::OutOfBandWrite);
    EXPECT_EQ(auditor.violations()[0].addr, sim::kMsrOcMailbox);
}

TEST_F(MsrAuditorTest, RejectsUnsafeWriteThatBypassesThePollingGuard) {
    MsrAuditor auditor(kernel_, {.map = &map_});
    const auto [freq, offset] = unsafe_point();
    raise_all_to(freq);
    ASSERT_FALSE(kernel_.module_loaded(plugvolt::PollingModule::kModuleName));
    test::msr_ok(kernel_.msr().try_wrmsr(
        0, 0, sim::kMsrOcMailbox,
        sim::encode_offset(offset, sim::VoltagePlane::Core)));
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].kind, AuditKind::UnsafeWrite);
}

TEST_F(MsrAuditorTest, SameUnsafeWriteIsGuardedTrafficWithTheModuleLoaded) {
    MsrAuditor auditor(kernel_, {.map = &map_});
    const auto [freq, offset] = unsafe_point();
    raise_all_to(freq);
    plugvolt::PollingConfig config;
    ASSERT_TRUE(kernel_.load_module(std::make_shared<plugvolt::PollingModule>(map_, config)));
    auditor.clear();  // module init traffic is not under test
    test::msr_ok(kernel_.msr().try_wrmsr(
        0, 0, sim::kMsrOcMailbox,
        sim::encode_offset(offset, sim::VoltagePlane::Core)));
    for (const AuditViolation& v : auditor.violations())
        EXPECT_NE(v.kind, AuditKind::UnsafeWrite) << v.detail();
}

TEST_F(MsrAuditorTest, FlagsOffsetDeeperThanTheAuditedFloor) {
    MsrAuditor auditor(kernel_, {.map = &map_});  // floor = map sweep floor (-300 mV)
    test::msr_ok(kernel_.msr().try_wrmsr(
        0, 0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-350.0}, sim::VoltagePlane::Core)));
    bool saw_range = false;
    for (const AuditViolation& v : auditor.violations())
        saw_range |= v.kind == AuditKind::OffsetOutOfRange;
    EXPECT_TRUE(saw_range);
}

TEST_F(MsrAuditorTest, FlagsMalformedPlaneEncoding) {
    MsrAuditor auditor(kernel_, {});
    // Plane field (bits 40-42) = 5: unassigned; command + write-enable set.
    const std::uint64_t forged =
        (1ULL << 63) | (5ULL << 40) | (1ULL << 32) | (0x7F0ULL << 21);
    test::msr_ok(kernel_.msr().try_wrmsr(0, 0, sim::kMsrOcMailbox, forged));
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].kind, AuditKind::MalformedMailbox);
}

TEST_F(MsrAuditorTest, NoEffectWritesAreNotValidated) {
    MsrAuditor auditor(kernel_, {.map = &map_});
    // Write-enable missing: hardware treats it as a no-op, so does the audit.
    const std::uint64_t no_effect = (1ULL << 63) | (0ULL << 40);
    test::msr_ok(kernel_.msr().try_wrmsr(0, 0, sim::kMsrOcMailbox, no_effect));
    EXPECT_TRUE(auditor.violations().empty());
}

TEST_F(MsrAuditorTest, FlagsStalePerfStatusReadMidTransition) {
    MsrAuditor auditor(kernel_, {.map = &map_});
    test::msr_ok(kernel_.msr().try_wrmsr(
        0, 0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-80.0}, sim::VoltagePlane::Core)));
    ASSERT_LT(machine_.now(), machine_.rail_settle_time());
    (void)test::msr_ok(kernel_.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus));  // rail still slewing
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].kind, AuditKind::StaleStatusRead);

    auditor.clear();
    machine_.advance(machine_.rail_settle_time() - machine_.now());
    (void)test::msr_ok(kernel_.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus));  // settled: fine
    EXPECT_TRUE(auditor.violations().empty());
}

TEST_F(MsrAuditorTest, StaleReadTextIsBuiltOnDemandAndWhenLogged) {
    // Three reads on a slewing rail: each is recorded with its time and
    // the settle time, and its text reads as the auditor always wrote
    // it, whether asked for or logged.
    const std::string expected_text_prefix = "0x198 read mid-transition: rail settles at ";
    const LogLevel level = log_level();
    set_log_level(LogLevel::Warn);
    MsrAuditor auditor(kernel_, {.map = &map_});
    Picoseconds settle{};
    std::vector<Picoseconds> read_times;
    std::vector<std::string> logged;
    {
        const test::CerrCapture capture;
        test::msr_ok(kernel_.msr().try_wrmsr(
            0, 0, sim::kMsrOcMailbox,
            sim::encode_offset(Millivolts{-80.0}, sim::VoltagePlane::Core)));
        settle = machine_.rail_settle_time();
        for (int i = 0; i < 3; ++i) {
            const std::uint64_t read =
                test::msr_ok(kernel_.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus)).value;
            read_times.push_back(machine_.now());  // the read's cost is charged first
            ASSERT_LT(read_times.back(), settle);
            EXPECT_EQ(auditor.violations().back().value, read);
            machine_.advance(microseconds(1.0));
        }
        std::istringstream in(capture.str());
        for (std::string line; std::getline(in, line);) logged.push_back(line);
    }
    set_log_level(level);
    ASSERT_EQ(auditor.violations().size(), 3u);
    ASSERT_EQ(logged.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        const AuditViolation& v = auditor.violations()[i];
        EXPECT_EQ(v.kind, AuditKind::StaleStatusRead);
        EXPECT_EQ(v.core, 0u);
        EXPECT_EQ(v.addr, sim::kMsrPerfStatus);
        EXPECT_EQ(v.time, read_times[i]);
        EXPECT_EQ(v.settle, settle);
        const std::string text = expected_text_prefix + std::to_string(settle.value()) +
                                 " ps, now " + std::to_string(read_times[i].value()) + " ps";
        EXPECT_EQ(v.detail(), text);
        EXPECT_NE(logged[i].find("msr-audit [stale-status-read] core 0 msr 0x198: " + text),
                  std::string::npos)
            << logged[i];
    }
}

TEST_F(MsrAuditorTest, OtherFindingsKeepTheirText) {
    MsrAuditor auditor(kernel_, {.map = &map_});
    machine_.write_msr(0, sim::kMsrOcMailbox,
                       sim::encode_offset(Millivolts{-50.0}, sim::VoltagePlane::Core));
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].detail(),
              "0x150 write reached the machine without passing the MSR driver");
}

TEST_F(MsrAuditorTest, DetachesOnDestruction) {
    {
        MsrAuditor auditor(kernel_, {});
        EXPECT_EQ(kernel_.msr().observer(), &auditor);
    }
    EXPECT_EQ(kernel_.msr().observer(), nullptr);
    // No auditor attached: traffic flows unobserved, nothing crashes.
    machine_.write_msr(0, sim::kMsrOcMailbox,
                       sim::encode_offset(Millivolts{-50.0}, sim::VoltagePlane::Core));
    test::msr_ok(kernel_.msr().try_wrmsr(
        0, 0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-40.0}, sim::VoltagePlane::Core)));
}

#if PV_CHECK_LEVEL >= 1

using MsrAuditorDeathTest = MsrAuditorTest;

TEST_F(MsrAuditorDeathTest, FatalModeAbortsOnForgedWrite) {
    MsrAuditor auditor(kernel_, {.map = &map_, .fatal = true});
    EXPECT_DEATH(machine_.write_msr(0, sim::kMsrOcMailbox,
                                    sim::encode_offset(Millivolts{-50.0},
                                                       sim::VoltagePlane::Core)),
                 "out-of-band-write");
}

TEST_F(MsrAuditorDeathTest, FatalModeAbortsOnStaleReadWithItsText) {
    // Quiet logging does not spare a fatal auditor the text: it dies
    // with the finding's full description.
    MsrAuditor auditor(kernel_, {.map = &map_, .fatal = true});
    test::msr_ok(kernel_.msr().try_wrmsr(
        0, 0, sim::kMsrOcMailbox,
        sim::encode_offset(Millivolts{-80.0}, sim::VoltagePlane::Core)));
    ASSERT_LT(machine_.now(), machine_.rail_settle_time());
    const std::string text = "0x198 read mid-transition: rail settles at " +
                             std::to_string(machine_.rail_settle_time().value()) +
                             " ps, now [0-9]+ ps";
    EXPECT_DEATH(
        {
            set_log_level(LogLevel::Off);
            (void)test::msr_ok(kernel_.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus));
        },
        "stale-status-read.*" + text);
}

#endif

}  // namespace
}  // namespace pv::check
