// Crash-resilience layer: CRC framing, write-ahead sweep journal, the
// identity check every journal opens through, deterministic environment
// fault injection, bounded retry, and the fail-safe degradation paths
// they feed (characterizer mailbox retry, journaled resume, polling
// fail-closed clamp).
#include "resilience/crc32.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/frames.hpp"
#include "resilience/journal.hpp"
#include "resilience/retry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.hpp"
#include "os/msr_driver.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/polling_module.hpp"
#include "prop/prop.hpp"
#include "serve/job_wal.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace pv::resilience {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "pv_" + name + ".pvj";
}

// ---------------------------------------------------------------- crc32

TEST(Crc32, KnownAnswerAndIncrementalComposition) {
    // The standard CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    // Feeding the stream in two chunks must equal the one-shot digest.
    const std::string text = "plug your volt";
    EXPECT_EQ(crc32(std::string_view(text).substr(5),
                    crc32(std::string_view(text).substr(0, 5))),
              crc32(text));
}

// ---------------------------------------------------------------- retry

TEST(RetryPolicy, RejectsBrokenParameters) {
    RetryPolicy p;
    p.max_attempts = 0;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.jitter = 1.0;  // jitter must stay below 1
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.multiplier = 1.1;
    p.jitter = 0.25;  // violates multiplier >= 1 + jitter
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.max_delay = Picoseconds{0};  // below base_delay
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(RetryPolicy, BackoffIsMonotoneAndBounded) {
    // The contract the characterizer/polling/journal retries lean on:
    // for ANY seed the delay sequence never shrinks and never exceeds
    // max_delay.  Checked over seeded random (seed, policy) samples.
    PROP_CHECK(0xB0FF, 300,
               [](std::int64_t seed, std::int64_t base_us, std::int64_t jitter_pct) {
                   RetryPolicy p;
                   p.max_attempts = 8;
                   p.base_delay = microseconds(static_cast<double>(base_us));
                   p.jitter = static_cast<double>(jitter_pct) / 100.0;
                   p.multiplier = 1.0 + p.jitter + 0.5;
                   p.max_delay = milliseconds(1.0);
                   p.validate();
                   Picoseconds prev{-1};
                   for (unsigned k = 0; k < 8; ++k) {
                       const Picoseconds d =
                           p.backoff(k, static_cast<std::uint64_t>(seed));
                       if (d < prev || d > p.max_delay || d < Picoseconds{0})
                           return false;
                       prev = d;
                   }
                   return true;
               },
               prop::IntDomain{0, 1 << 20}, prop::IntDomain{1, 50},
               prop::IntDomain{0, 90});
}

TEST(RetrySchedule, GrantsExactBudgetWithZeroFirstBackoff) {
    RetryPolicy p;
    p.max_attempts = 4;
    RetrySchedule sched(p, /*seed=*/7);
    unsigned grants = 0;
    Picoseconds first{-1};
    while (sched.next_attempt()) {
        if (grants == 0) first = sched.backoff();
        ++grants;
    }
    EXPECT_EQ(grants, 4u);
    EXPECT_EQ(first, Picoseconds{0});
    // Budget stays spent.
    EXPECT_FALSE(sched.next_attempt());
}

TEST(RetrySchedule, BackoffsReplayBitExactlyFromSeed) {
    RetryPolicy p;
    p.max_attempts = 6;
    std::vector<std::int64_t> a, b;
    for (int run = 0; run < 2; ++run) {
        RetrySchedule sched(p, /*seed=*/0xFEED);
        auto& out = run == 0 ? a : b;
        while (sched.next_attempt()) out.push_back(sched.backoff().value());
    }
    EXPECT_EQ(a, b);
}

// ------------------------------------------------------- fault injector

TEST(FaultInjector, PlanValidationAndEmptiness) {
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    plan.set_rate(FaultKind::RdmsrError, 1.5);
    EXPECT_THROW(plan.validate(), ConfigError);
    plan.set_rate(FaultKind::RdmsrError, 0.5);
    EXPECT_FALSE(plan.empty());
    plan.validate();
}

TEST(FaultInjector, DecisionsReplayBitExactlyAfterReseed) {
    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrError, 0.3);
    plan.set_rate(FaultKind::StaleRead, 0.7);
    FaultInjector injector(plan);
    injector.reseed(0xCE11);
    std::vector<bool> first;
    for (int i = 0; i < 64; ++i) {
        first.push_back(injector.should_inject(FaultKind::RdmsrError));
        first.push_back(injector.should_inject(FaultKind::StaleRead));
    }
    injector.reseed(0xCE11);
    for (std::size_t i = 0; i < first.size(); i += 2) {
        EXPECT_EQ(injector.should_inject(FaultKind::RdmsrError), first[i]);
        EXPECT_EQ(injector.should_inject(FaultKind::StaleRead), first[i + 1]);
    }
}

TEST(FaultInjector, KindStreamsAreIndependent) {
    // Interleaving draws of another kind must not perturb a kind's own
    // decision sequence (each kind indexes its own splitmix64 stream).
    FaultPlan plan;
    plan.set_rate(FaultKind::WrmsrError, 0.4);
    plan.set_rate(FaultKind::MailboxBusy, 0.4);
    FaultInjector pure(plan);
    pure.reseed(42);
    std::vector<bool> expected;
    for (int i = 0; i < 32; ++i)
        expected.push_back(pure.should_inject(FaultKind::WrmsrError));

    FaultInjector mixed(plan);
    mixed.reseed(42);
    for (int i = 0; i < 32; ++i) {
        (void)mixed.should_inject(FaultKind::MailboxBusy);
        EXPECT_EQ(mixed.should_inject(FaultKind::WrmsrError), expected[static_cast<std::size_t>(i)]);
        (void)mixed.should_inject(FaultKind::MailboxBusy);
    }
}

TEST(FaultInjector, RateEndpointsAndCounters) {
    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrTimeout, 1.0);
    FaultInjector injector(plan);
    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(injector.should_inject(FaultKind::RdmsrTimeout));
        EXPECT_FALSE(injector.should_inject(FaultKind::WrmsrError));  // rate 0
    }
    EXPECT_EQ(injector.injected(FaultKind::RdmsrTimeout), 16u);
    EXPECT_EQ(injector.opportunities(FaultKind::RdmsrTimeout), 16u);
    EXPECT_EQ(injector.injected(FaultKind::WrmsrError), 0u);
    EXPECT_EQ(injector.opportunities(FaultKind::WrmsrError), 16u);
    EXPECT_EQ(injector.injected_total(), 16u);
}

// -------------------------------------------------------------- journal

RowRecord sample_row(std::uint64_t i) {
    return RowRecord{
        .row_index = i,
        .freq_mhz = 400.0 + 100.0 * static_cast<double>(i),
        .onset_mv = -140.0 - static_cast<double>(i),
        .crash_mv = -190.0 - static_cast<double>(i),
        .fault_free = (i % 3) == 0,
        .cells = 10 + i,
        .crashes = i % 2,
    };
}

constexpr std::uint64_t kHash = 0xDEADBEEFCAFE;

/// Write a fresh journal of `rows` sample rows at `path` through the
/// production SweepJournal and return its bytes.
std::string journal_image(const std::string& path, std::uint64_t rows) {
    std::remove(path.c_str());
    {
        SweepJournal journal = SweepJournal::open(path, kHash);
        for (std::uint64_t i = 0; i < rows; ++i) journal.commit(sample_row(i));
    }
    return read_file(path);
}

/// Replay a journal byte image through the production open path.
SweepJournal replay(const std::string& path, const std::string& bytes) {
    atomic_write_file(path, bytes);
    return SweepJournal::open(path, kHash);
}

TEST(Journal, HeaderAndRowsRoundTrip) {
    const std::string path = temp_path("round_trip");
    const SweepJournal replayed = replay(path, journal_image(path, 5));
    EXPECT_EQ(replayed.identity(), (LogIdentity{SweepJournal::kFormat, kHash}));
    ASSERT_EQ(replayed.rows().size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(replayed.rows()[i], sample_row(i));
    EXPECT_FALSE(replayed.tail_dropped());
    std::remove(path.c_str());
}

TEST(Journal, RowRoundTripProperty) {
    // Encode/decode round-trip over random row records, bit-exact
    // doubles included (they travel as bit patterns).
    const std::string path = temp_path("row_property");
    PROP_CHECK(0xB17'0001, 200,
               [&path](std::int64_t a, std::int64_t b, std::int64_t c) {
                   RowRecord r;
                   r.row_index = static_cast<std::uint64_t>(a);
                   r.freq_mhz = 400.0 + static_cast<double>(b) * 0.37;
                   r.onset_mv = -static_cast<double>(c) * 0.013;
                   r.crash_mv = r.onset_mv - 40.0;
                   r.fault_free = (a % 2) == 0;
                   r.cells = static_cast<std::uint64_t>(b);
                   r.crashes = static_cast<std::uint64_t>(c % 3);
                   std::remove(path.c_str());
                   SweepJournal::open(path, kHash).commit(r);
                   const SweepJournal replayed = SweepJournal::open(path, kHash);
                   return replayed.rows().size() == 1 && replayed.rows()[0] == r &&
                          !replayed.tail_dropped();
               },
               prop::IntDomain{0, 1'000'000}, prop::IntDomain{0, 1 << 20},
               prop::IntDomain{0, 100'000});
    std::remove(path.c_str());
}

TEST(Journal, TruncationAtAnyPointRecoversTheIntactPrefix) {
    // The write-ahead contract: however many bytes survive a crash, the
    // decoder recovers every fully committed row and drops the torn
    // tail — it never throws past a valid header and never fabricates.
    const std::string path = temp_path("truncation");
    const std::size_t head = journal_image(path, 0).size();
    const std::string bytes = journal_image(path, 6);
    for (std::size_t cut = head; cut < bytes.size(); ++cut) {
        const SweepJournal replayed = replay(path, bytes.substr(0, cut));
        EXPECT_LE(replayed.rows().size(), 6u);
        for (std::size_t i = 0; i < replayed.rows().size(); ++i)
            EXPECT_EQ(replayed.rows()[i], sample_row(i));
        EXPECT_EQ(replayed.tail_dropped(), replayed.logical_bytes() < cut);
        // The scrub left exactly the intact prefix on disk.
        EXPECT_EQ(read_file(path), bytes.substr(0, replayed.logical_bytes()));
    }
    std::remove(path.c_str());
}

TEST(Journal, CorruptedRowByteDropsThatRowAndBeyond) {
    const std::string path = temp_path("corrupt_byte");
    const std::size_t head = journal_image(path, 0).size();
    std::string bytes = journal_image(path, 4);
    const std::size_t row = (bytes.size() - head) / 4;
    bytes[head + 2 * row + row / 2] ^= 0x40;  // inside row 2's frame
    const SweepJournal replayed = replay(path, bytes);
    ASSERT_EQ(replayed.rows().size(), 2u);
    EXPECT_TRUE(replayed.tail_dropped());
    EXPECT_EQ(replayed.rows()[0], sample_row(0));
    EXPECT_EQ(replayed.rows()[1], sample_row(1));
    std::remove(path.c_str());
}

TEST(Journal, MissingOrMalformedHeaderThrows) {
    const std::string path = temp_path("bad_header");
    const std::size_t head = journal_image(path, 0).size();
    // A row frame first is not a journal either.
    const std::string row_first = journal_image(path, 1).substr(head);
    for (const std::string& bytes : {std::string(), std::string("not a journal at all"),
                                     row_first}) {
        atomic_write_file(path, bytes);
        EXPECT_THROW((void)SweepJournal::open(path, kHash), JournalError);
        EXPECT_EQ(read_file(path), bytes);  // refused, not rewritten
    }
    std::remove(path.c_str());
}

TEST(SweepJournal, CommitResumeScrubsTornTail) {
    const std::string path = temp_path("torn_tail");
    const std::string three_rows = journal_image(path, 3);
    const std::string two_rows = journal_image(path, 2);
    // Crash mid-commit: garbage after the last intact frame.
    atomic_write_file(path, three_rows.substr(0, two_rows.size() + 7));
    SweepJournal recovered = SweepJournal::open(path, kHash, JournalOptions{});
    EXPECT_TRUE(recovered.tail_dropped());
    ASSERT_EQ(recovered.rows().size(), 2u);
    EXPECT_EQ(recovered.identity(), (LogIdentity{SweepJournal::kFormat, kHash}));
    // The scrub rewrote the file so append-mode commits land cleanly.
    recovered.commit(sample_row(2));
    SweepJournal again = SweepJournal::open(path, kHash, JournalOptions{});
    EXPECT_FALSE(again.tail_dropped());
    ASSERT_EQ(again.rows().size(), 3u);
    EXPECT_EQ(again.rows()[2], sample_row(2));
    std::remove(path.c_str());
}

TEST(SweepJournal, AtomicRewriteModeRoundTripsToo) {
    const std::string path = temp_path("rewrite_mode");
    std::remove(path.c_str());
    JournalOptions options;
    options.mode = CommitMode::AtomicRewrite;
    {
        SweepJournal journal = SweepJournal::open(path, kHash, options);
        journal.commit(sample_row(0));
        journal.commit(sample_row(1));
        // Rewrite mode pays write amplification for torn-tail immunity.
        EXPECT_GT(journal.bytes_written(), journal.logical_bytes());
    }
    SweepJournal recovered = SweepJournal::open(path, kHash, options);
    EXPECT_EQ(recovered.rows().size(), 2u);
    std::remove(path.c_str());
}

/// io_retries() of eight commits under a 0.6 FileWriteError plan with
/// the default retry seed.
constexpr std::uint64_t kPinnedIoRetries = 26;

TEST(SweepJournal, InjectedFileFaultsRetryThenExhaust) {
    const std::string path = temp_path("file_faults");
    std::remove(path.c_str());
    std::remove((path + ".doomed").c_str());
    FaultPlan plan;
    plan.set_rate(FaultKind::FileWriteError, 0.6);
    FaultInjector injector(plan);
    JournalOptions options;
    options.file_faults = &injector;
    options.io_retry.max_attempts = 10;
    {
        SweepJournal journal = SweepJournal::open(path, kHash, options);
        for (std::uint64_t i = 0; i < 8; ++i) journal.commit(sample_row(i));
        // The retry stream is a pure function of the plan and the retry
        // seed: this count is pinned so a change to the write path cannot
        // move it.
        EXPECT_EQ(journal.io_retries(), kPinnedIoRetries);
    }
    // Faulted attempts write nothing: the file is the fault-free log.
    const std::string faulted = read_file(path);
    EXPECT_EQ(faulted, journal_image(path + ".clean", 8));
    std::remove((path + ".clean").c_str());
    EXPECT_EQ(SweepJournal::open(path, kHash, JournalOptions{}).rows().size(), 8u);

    // A disk that always fails exhausts the bounded budget.
    FaultPlan dead;
    dead.set_rate(FaultKind::FileWriteError, 1.0);
    FaultInjector dead_injector(dead);
    JournalOptions doomed;
    doomed.file_faults = &dead_injector;
    doomed.io_retry.max_attempts = 3;
    SweepJournal journal = SweepJournal::open(path + ".doomed", kHash, doomed);
    EXPECT_THROW(journal.commit(sample_row(0)), JournalError);
    std::remove(path.c_str());
    std::remove((path + ".doomed").c_str());
}

// ------------------------------------------------------------ FrameLog

constexpr LogIdentity kTestIdentity{99, kHash};

TEST(FrameLog, EachAppendReachesTheFileBeforeItReturns) {
    // Write-ahead: with the log still open, a second reader sees the
    // header plus exactly the frames appended so far.
    const std::string path = temp_path("framelog_visible");
    std::remove(path.c_str());
    FrameLog log = FrameLog::open(path, {}, kTestIdentity);
    for (std::size_t n = 1; n <= 6; ++n) {
        log.append(2, "payload " + std::to_string(n));
        const std::string bytes = read_file(path);
        EXPECT_EQ(bytes.size(), log.logical_bytes());
        const ScannedFrame head = scan_frame(bytes);
        ASSERT_TRUE(head.valid);
        EXPECT_EQ(head.kind, 1u);
        std::size_t pos = head.size;
        std::size_t frames = 0;
        while (pos < bytes.size()) {
            const ScannedFrame f = scan_frame(std::string_view(bytes).substr(pos));
            ASSERT_TRUE(f.valid) << "torn frame at byte " << pos;
            ++frames;
            EXPECT_EQ(f.payload, "payload " + std::to_string(frames));
            pos += f.size;
        }
        EXPECT_EQ(frames, n);
    }
    std::remove(path.c_str());
}

TEST(FrameLog, MovedLogKeepsItsDescriptorWhenTheSourceDies) {
    const std::string path = temp_path("framelog_move");
    std::remove(path.c_str());
    auto source = std::make_unique<FrameLog>(FrameLog::open(path, {}, kTestIdentity));
    source->append(2, "before the move");  // opens the descriptor
    FrameLog owner(std::move(*source));
    source.reset();  // must not close the descriptor the owner now holds
    owner.append(2, "after the move");
    owner.append(2, "and again");

    const FrameLog replayed = FrameLog::open(path, {}, kTestIdentity);
    EXPECT_FALSE(replayed.tail_dropped());
    ASSERT_EQ(replayed.frames().size(), 3u);
    EXPECT_EQ(replayed.frames()[0].payload, "before the move");
    EXPECT_EQ(replayed.frames()[2].payload, "and again");
    EXPECT_EQ(replayed.frames(), owner.frames());
    std::remove(path.c_str());
}

TEST(FrameLog, DestroyedLogsReleaseTheirDescriptors) {
    const std::filesystem::path fd_dir = "/proc/self/fd";
    if (!std::filesystem::is_directory(fd_dir)) GTEST_SKIP() << "no " << fd_dir;
    const auto open_descriptors = [&fd_dir] {
        const std::filesystem::directory_iterator entries(fd_dir);
        return std::distance(begin(entries), end(entries));
    };
    const std::string path = temp_path("framelog_fds");
    std::remove(path.c_str());
    const auto before = open_descriptors();
    for (int i = 0; i < 256; ++i) {
        FrameLog log = FrameLog::open(path, {}, kTestIdentity);
        log.append(2, "frame " + std::to_string(i));
    }
    EXPECT_EQ(open_descriptors(), before);
    EXPECT_EQ(FrameLog::open(path, {}, kTestIdentity).frames().size(), 256u);
    std::remove(path.c_str());
}

// ----------------------------------------------------- journal identity

/// `open_as` must throw ConfigError without changing a byte of `path`.
template <typename Open>
void expect_refused_untouched(const std::string& path, const Open& open_as) {
    const std::string before = read_file(path);
    EXPECT_THROW(open_as(), ConfigError);
    EXPECT_EQ(read_file(path), before);
}

TEST(JournalIdentity, MismatchedOpenThrowsAndLeavesTheFileByteIdentical) {
    // Every log is opened the wrong way first: as another log type, or
    // under another config hash.  An identity check that ran after
    // replay would already have scrubbed the "torn" records away.
    const std::string sweep_path = temp_path("identity_sweep");
    const std::string cube_path = temp_path("identity_cube");
    const std::string wal_path = temp_path("identity_wal");
    for (const std::string& p : {sweep_path, cube_path, wal_path}) std::remove(p.c_str());
    {
        SweepJournal sweep = SweepJournal::open(sweep_path, kHash);
        for (std::uint64_t i = 0; i < 3; ++i) sweep.commit(sample_row(i));
        campaign::CampaignJournal cube = campaign::CampaignJournal::open(cube_path, kHash);
        for (std::size_t i = 0; i < 2; ++i) {
            campaign::CampaignCellResult cell;
            cell.spec.index = i;
            cell.verdict = "cell " + std::to_string(i);
            cube.commit_cell(cell);
        }
        cube.commit_attempt(2, 1);
        serve::JobWal wal = serve::JobWal::open(wal_path, kHash);
        wal.submitted(1, serve::JobSpec{});
        wal.started(1);
    }
    expect_refused_untouched(cube_path,
                             [&] { (void)SweepJournal::open(cube_path, kHash); });
    expect_refused_untouched(wal_path,
                             [&] { (void)campaign::CampaignJournal::open(wal_path, kHash); });
    expect_refused_untouched(sweep_path,
                             [&] { (void)SweepJournal::open(sweep_path, kHash + 1); });

    // The right open still resumes every record.
    EXPECT_EQ(SweepJournal::open(sweep_path, kHash).rows().size(), 3u);
    const campaign::CampaignJournal cube = campaign::CampaignJournal::open(cube_path, kHash);
    EXPECT_EQ(cube.cells().size(), 2u);
    EXPECT_EQ(cube.attempts_failed(2), 1u);
    const serve::JobWal wal = serve::JobWal::open(wal_path, kHash);
    ASSERT_EQ(wal.records().size(), 1u);
    EXPECT_EQ(wal.records()[0].state, serve::JobState::Queued);
    for (const std::string& p : {sweep_path, cube_path, wal_path}) std::remove(p.c_str());
}

TEST(JournalIdentity, PreIdentityFormatFilesAreRefusedUntouched) {
    // Headers as written before the identity header: version 1, the
    // config hash and, for sweeps, seed, floor and system name.  The
    // sweep file also carries one row and a torn tail to scrub.
    const std::string path = temp_path("pre_identity");
    const std::size_t head = journal_image(path, 0).size();
    const std::string row = journal_image(path, 1).substr(head);
    std::string sweep_header;
    put_u32(sweep_header, 1);
    put_u64(sweep_header, kHash);
    put_u64(sweep_header, 0x5EED);
    put_f64(sweep_header, -300.0);
    put_str(sweep_header, "i5-6500");
    atomic_write_file(path, encode_frame(1, sweep_header) + row + row.substr(0, 9));
    expect_refused_untouched(path, [&] { (void)SweepJournal::open(path, kHash); });

    std::string wal_header;
    put_u32(wal_header, 1);
    put_u64(wal_header, kHash);
    atomic_write_file(path, encode_frame(1, wal_header));
    expect_refused_untouched(path, [&] { (void)serve::JobWal::open(path, kHash); });
    std::remove(path.c_str());
}

// ------------------------------------------------------ driver injection

TEST(MsrDriverFaults, StatusesSurfaceAndLegacyApiThrows) {
    test::MachineRig rig(11);
    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrError, 1.0);
    plan.set_rate(FaultKind::WrmsrError, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    const os::MsrReadResult r = rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus);
    EXPECT_EQ(r.status, os::MsrStatus::IoError);
    const auto raw = sim::encode_offset(Millivolts{-10.0}, sim::VoltagePlane::Core);
    EXPECT_THROW(rig.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox, raw), DriverError);
    EXPECT_EQ(rig.kernel.msr().fault_counters().read_errors, 1u);
    EXPECT_EQ(rig.kernel.msr().fault_counters().write_errors, 1u);

    // Detaching restores the clean path bit-for-bit.
    rig.kernel.msr().set_fault_injector(nullptr);
    (void)test::msr_ok(rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus));
}

TEST(MsrDriverFaults, MailboxBusyOnlyHitsTheMailbox) {
    test::MachineRig rig(12);
    FaultPlan plan;
    plan.set_rate(FaultKind::MailboxBusy, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    EXPECT_EQ(rig.kernel.msr().try_wrmsr(0, 0, sim::kMsrPerfCtl, std::uint64_t{0x8} << 8).status,
              os::MsrStatus::Ok);
    const auto raw = sim::encode_offset(Millivolts{-10.0}, sim::VoltagePlane::Core);
    EXPECT_EQ(rig.kernel.msr().try_wrmsr(0, 0, sim::kMsrOcMailbox, raw).status,
              os::MsrStatus::Busy);
    EXPECT_EQ(rig.kernel.msr().fault_counters().mailbox_busy, 1u);
}

TEST(MsrDriverFaults, TimeoutBurnsExtraCycles) {
    test::MachineRig rig(13);
    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrTimeout, 1.0);
    FaultInjector injector(plan);
    const std::uint64_t before = rig.kernel.msr().total_cost_cycles();
    (void)rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus);
    const std::uint64_t clean = rig.kernel.msr().total_cost_cycles() - before;

    rig.kernel.msr().set_fault_injector(&injector);
    const std::uint64_t mid = rig.kernel.msr().total_cost_cycles();
    EXPECT_EQ(rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus).status,
              os::MsrStatus::Timeout);
    EXPECT_GT(rig.kernel.msr().total_cost_cycles() - mid, clean);
}

TEST(MsrDriverFaults, StaleReadServesThePreviousValue) {
    test::MachineRig rig(14);
    FaultPlan plan;
    plan.set_rate(FaultKind::StaleRead, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    // First read has no history: trivially coherent.
    const os::MsrReadResult first = rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrOcMailbox);
    EXPECT_EQ(first.status, os::MsrStatus::Ok);
    EXPECT_FALSE(first.stale);

    // Change the MSR, then read: the torn read serves the OLD value.
    const auto raw = sim::encode_offset(Millivolts{-25.0}, sim::VoltagePlane::Core);
    ASSERT_EQ(rig.kernel.msr().try_wrmsr(0, 0, sim::kMsrOcMailbox, raw).status,
              os::MsrStatus::Ok);
    const os::MsrReadResult second = rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrOcMailbox);
    EXPECT_EQ(second.status, os::MsrStatus::Ok);
    EXPECT_TRUE(second.stale);
    EXPECT_EQ(second.value, first.value);
    EXPECT_EQ(rig.kernel.msr().fault_counters().stale_reads, 1u);

    // clear_stale_cache() forgets the history (the per-cell boundary).
    rig.kernel.msr().clear_stale_cache();
    const os::MsrReadResult third = rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrOcMailbox);
    EXPECT_FALSE(third.stale);
}

// ----------------------------------------------- characterizer retries

TEST(CharacterizerRetry, AbsorbsMailboxFaultsWithinBudget) {
    test::MachineRig rig(21);
    FaultPlan plan;
    plan.set_rate(FaultKind::MailboxBusy, 0.8);
    FaultInjector injector(plan);
    injector.reseed(0xAB5);
    rig.kernel.msr().set_fault_injector(&injector);

    plugvolt::CharacterizerConfig config;
    config.offset_step = Millivolts{5.0};
    config.retry.max_attempts = 12;
    plugvolt::Characterizer characterizer(rig.kernel, config);
    const plugvolt::CellResult cell =
        characterizer.test_cell(rig.machine.profile().freq_base, Millivolts{-20.0});
    EXPECT_FALSE(cell.crashed);
    EXPECT_GT(characterizer.msr_retries(), 0u);
}

TEST(CharacterizerRetry, ExhaustedBudgetRaisesDriverError) {
    test::MachineRig rig(22);
    FaultPlan plan;
    plan.set_rate(FaultKind::MailboxBusy, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    plugvolt::CharacterizerConfig config;
    config.offset_step = Millivolts{5.0};
    config.retry.max_attempts = 3;
    plugvolt::Characterizer characterizer(rig.kernel, config);
    EXPECT_THROW((void)characterizer.test_cell(rig.machine.profile().freq_base,
                                               Millivolts{-20.0}),
                 DriverError);
}

// ------------------------------------------------- journaled sweeps

plugvolt::ParallelCharacterizerConfig sweep_config(std::uint64_t seed) {
    plugvolt::ParallelCharacterizerConfig config;
    config.cell.offset_step = Millivolts{10.0};
    config.workers = 2;
    config.mode = plugvolt::SweepMode::Bisection;
    config.seed = seed;
    return config;
}

/// Thrown by a progress callback to model the process dying mid-sweep.
struct KillSignal {};

TEST(JournaledSweep, MatchesPlainSweepAndResumesForFree) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    const std::string path = temp_path("journaled_sweep");
    plugvolt::ParallelCharacterizer engine(profile, sweep_config(0x90AD));

    const std::uint64_t plain_hash = plugvolt::state_hash(engine.characterize());

    std::remove(path.c_str());
    SweepJournal journal = SweepJournal::open(path, engine.config_hash(), JournalOptions{});
    EXPECT_EQ(plugvolt::state_hash(engine.characterize(journal)), plain_hash);
    EXPECT_EQ(engine.stats().journal_commits, journal.rows().size());
    EXPECT_GT(engine.stats().journal_bytes, 0u);

    // Resuming a COMPLETE journal adopts every row: zero probes.
    SweepJournal full = SweepJournal::open(path, engine.config_hash(), JournalOptions{});
    EXPECT_EQ(plugvolt::state_hash(engine.characterize(full)), plain_hash);
    EXPECT_EQ(engine.stats().cells_evaluated, 0u);
    EXPECT_EQ(engine.stats().rows_resumed, engine.stats().rows);
    std::remove(path.c_str());
}

TEST(JournaledSweep, KillMidSweepThenResumeIsBitIdentical) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    const std::string path = temp_path("kill_resume");
    plugvolt::ParallelCharacterizer engine(profile, sweep_config(0xC1A5));

    const std::uint64_t reference = plugvolt::state_hash(engine.characterize());

    std::remove(path.c_str());
    {
        SweepJournal journal =
            SweepJournal::open(path, engine.config_hash(), JournalOptions{});
        std::size_t delivered = 0;
        EXPECT_THROW((void)engine.characterize(
                         journal,
                         [&delivered](const plugvolt::FreqCharacterization&) {
                             if (++delivered == 3) throw KillSignal{};
                         }),
                     KillSignal);
    }
    SweepJournal recovered =
        SweepJournal::open(path, engine.config_hash(), JournalOptions{});
    EXPECT_GE(recovered.rows().size(), 3u);
    EXPECT_EQ(plugvolt::state_hash(engine.characterize(recovered)), reference);
    EXPECT_GE(engine.stats().rows_resumed, 3u);
    std::remove(path.c_str());
}

TEST(JournaledSweep, ConfigMismatchIsRejected) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    const std::string path = temp_path("config_mismatch");
    plugvolt::ParallelCharacterizer engine(profile, sweep_config(1));
    std::remove(path.c_str());
    SweepJournal journal = SweepJournal::open(path, engine.config_hash(), JournalOptions{});

    plugvolt::ParallelCharacterizer other(profile, sweep_config(2));
    EXPECT_NE(engine.config_hash(), other.config_hash());
    EXPECT_THROW((void)other.characterize(journal), ConfigError);
    std::remove(path.c_str());

    // A journal with the right identity must still hold rows of this
    // frequency table: a row whose frequency disagrees, or whose index
    // lies past the table, is rejected before any row is adopted.
    const std::vector<Megahertz> table = profile.frequency_table();
    for (const RowRecord bad :
         {RowRecord{.row_index = 1, .freq_mhz = table[1].value() + 100.0},
          RowRecord{.row_index = table.size(), .freq_mhz = table.back().value()}}) {
        std::remove(path.c_str());
        SweepJournal rows = SweepJournal::open(path, engine.config_hash(), JournalOptions{});
        rows.commit(bad);
        EXPECT_THROW((void)engine.characterize(rows), JournalError) << bad.row_index;
    }
    std::remove(path.c_str());
}

TEST(JournaledSweep, InjectedFaultSweepReplaysAcrossWorkerCounts) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    FaultPlan plan;
    plan.set_rate(FaultKind::MailboxBusy, 0.2);
    plan.set_rate(FaultKind::StaleRead, 0.1);

    auto config = sweep_config(0xFA15);
    config.fault_plan = plan;
    config.cell.retry.max_attempts = 8;

    plugvolt::ParallelCharacterizer two(profile, config);
    const std::uint64_t hash_two = plugvolt::state_hash(two.characterize());
    const std::uint64_t faults_two = two.stats().env_faults;
    EXPECT_GT(faults_two, 0u);
    EXPECT_GT(two.stats().msr_retries, 0u);

    config.workers = 4;
    plugvolt::ParallelCharacterizer four(profile, config);
    EXPECT_EQ(plugvolt::state_hash(four.characterize()), hash_two);
    EXPECT_EQ(four.stats().env_faults, faults_two);
    EXPECT_EQ(four.stats().msr_retries, two.stats().msr_retries);
}

// ------------------------------------------------ polling fail-closed

TEST(PollingFailClosed, ReadStarvationClampsToMaximalSafe) {
    // The acceptance property: with every status read failing, the
    // module must NEVER dwell unclamped on unknown state beyond its
    // retry budget — each abandoned poll fail-closes to the maximal
    // safe state.
    test::MachineRig rig(31);
    auto module =
        std::make_shared<plugvolt::PollingModule>(test::comet_map(), plugvolt::PollingConfig{});
    rig.kernel.load_module(module);

    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrError, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    rig.machine.advance(milliseconds(1.0));

    const plugvolt::PollingMetrics& m = module->metrics();
    EXPECT_GT(m.polls, 0u);
    EXPECT_EQ(m.missed_polls, m.polls);           // every poll lost its reads
    EXPECT_EQ(m.fail_closed_clamps, m.missed_polls);  // ...and every one clamped
    EXPECT_GT(m.read_retries, 0u);
    EXPECT_EQ(m.detections, 0u);  // it never classified garbage as a reading

    const auto req = sim::decode_offset(rig.machine.read_msr(0, sim::kMsrOcMailbox));
    ASSERT_TRUE(req.has_value());
    // Compare against the mailbox-quantized maximal safe offset (the
    // encoding rounds to 1/1024 V steps).
    const Millivolts maximal =
        module->map().maximal_safe_offset(module->config().guard_band);
    const auto quantized =
        sim::decode_offset(sim::encode_offset(maximal, sim::VoltagePlane::Core));
    ASSERT_TRUE(quantized.has_value());
    EXPECT_DOUBLE_EQ(req->offset.value(), quantized->offset.value());
}

TEST(PollingFailClosed, TransientFaultsAreAbsorbedByRetry) {
    // A flaky-but-not-dead environment: reads fail often but the retry
    // budget covers them, so polls complete and nothing fail-closes.
    test::MachineRig rig(32);
    plugvolt::PollingConfig config;
    config.driver_retry.max_attempts = 12;
    auto module = std::make_shared<plugvolt::PollingModule>(test::comet_map(), config);
    rig.kernel.load_module(module);

    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrError, 0.4);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    rig.machine.advance(milliseconds(1.0));

    const plugvolt::PollingMetrics& m = module->metrics();
    EXPECT_GT(m.polls, 0u);
    EXPECT_GT(m.read_retries, 0u);
    EXPECT_EQ(m.missed_polls, 0u);
    EXPECT_EQ(m.fail_closed_clamps, 0u);
}

TEST(PollingFailClosed, StaleReadsAreCountedButHarmlessAtRest) {
    test::MachineRig rig(33);
    auto module = std::make_shared<plugvolt::PollingModule>(test::comet_map(),
                                                            plugvolt::PollingConfig{});
    rig.kernel.load_module(module);

    FaultPlan plan;
    plan.set_rate(FaultKind::StaleRead, 0.5);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    rig.machine.advance(milliseconds(1.0));

    const plugvolt::PollingMetrics& m = module->metrics();
    EXPECT_GT(m.stale_reads, 0u);
    EXPECT_EQ(m.missed_polls, 0u);
    // A machine at rest reads the same values stale or fresh: no false
    // detections.
    EXPECT_EQ(m.detections, 0u);
}

// --------------------------------------------------- atomic persistence

TEST(AtomicPersistence, SafeStateMapFileRoundTripIsBitExact) {
    const plugvolt::SafeStateMap& map = test::comet_map();
    const std::string path = ::testing::TempDir() + "pv_map_roundtrip.csv";
    map.save_csv(path);
    const plugvolt::SafeStateMap loaded =
        plugvolt::SafeStateMap::load_csv(path, map.system_name(), map.sweep_floor());
    EXPECT_EQ(plugvolt::state_hash(loaded), plugvolt::state_hash(map));
    // The temp file used for atomicity does not outlive the write.
    EXPECT_FALSE(file_exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(AtomicPersistence, FsioReadWriteAndMissingFile) {
    const std::string path = ::testing::TempDir() + "pv_fsio_probe.txt";
    atomic_write_file(path, "first");
    atomic_write_file(path, "second");  // overwrite is atomic too
    EXPECT_EQ(read_file(path), "second");
    EXPECT_TRUE(file_exists(path));
    std::remove(path.c_str());
    EXPECT_FALSE(file_exists(path));
    EXPECT_THROW((void)read_file(path), IoError);
}

}  // namespace
}  // namespace pv::resilience
