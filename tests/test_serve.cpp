// src/serve tests: the job WAL codec and replay, uncertainty-aware
// guard-band widening, and the CampaignDaemon's contracts — write-ahead
// durability, deterministic admission control, bounded retry, the
// work-unit watchdog, and fail-closed benign-DVFS serving (including
// mid-characterization requests pinned to the last committed map) —
// and that one worker runs every engine without a thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet_orchestrator.hpp"
#include "fleet/silicon_lot.hpp"
#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "serve/daemon.hpp"
#include "serve/guard_band.hpp"
#include "serve/job.hpp"
#include "serve/job_wal.hpp"
#include "sim/cpu_profile.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/thread_pool.hpp"

namespace pv::serve {
namespace {

std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "pv_serve_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

JobSpec characterize_spec() {
    JobSpec spec;
    spec.kind = JobKind::Characterize;
    return spec;
}

JobSpec campaign_spec() {
    JobSpec spec;
    spec.kind = JobKind::Campaign;
    spec.campaign_attacks = 2;
    spec.campaign_defenses = 2;
    return spec;
}

JobSpec fleet_spec(std::uint64_t units = 2) {
    JobSpec spec;
    spec.kind = JobKind::Fleet;
    spec.units = units;
    return spec;
}

// ---------------------------------------------------------------------
// JobWal

TEST(JobWal, RoundTripsRecordsThroughResume) {
    const std::string dir = fresh_dir("wal_roundtrip");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/queue.wal";

    JobSpec spec = characterize_spec();
    spec.seed = 0x1234;
    JobRecord finished;
    {
        JobWal wal = JobWal::open(path, 0xABCD);
        EXPECT_EQ(wal.next_id(), 1u);
        wal.submitted(1, spec);
        wal.started(1);
        wal.attempt_failed(1, 1);
        wal.started(1);
        finished.id = 1;
        finished.spec = spec;
        finished.state = JobState::Completed;
        finished.result_fingerprint = 0xFEED;
        finished.attempts = 2;
        finished.progress_units = 7;
        finished.detail = "done";
        wal.finished(finished);
        wal.submitted(2, campaign_spec());
        wal.rejected(2);
        wal.submitted(3, fleet_spec());
        EXPECT_EQ(wal.next_id(), 4u);
    }

    JobWal recovered = JobWal::open(path, 0xABCD);
    EXPECT_EQ(recovered.identity().config_hash, 0xABCDu);
    EXPECT_EQ(recovered.next_id(), 4u);
    EXPECT_EQ(recovered.tail_dropped(), 0u);
    ASSERT_EQ(recovered.records().size(), 3u);

    const JobRecord& first = recovered.records()[0];
    EXPECT_EQ(first.id, 1u);
    EXPECT_EQ(first.spec, spec);
    EXPECT_EQ(first.state, JobState::Completed);
    EXPECT_EQ(first.result_fingerprint, 0xFEEDu);
    EXPECT_EQ(first.attempts, 2u);
    EXPECT_EQ(first.progress_units, 7u);
    EXPECT_EQ(first.detail, "done");

    EXPECT_EQ(recovered.records()[1].state, JobState::Rejected);
    EXPECT_EQ(recovered.records()[1].spec, campaign_spec());
    // Submitted + started but never finished: replays as Queued.
    EXPECT_EQ(recovered.records()[2].state, JobState::Queued);
    EXPECT_EQ(recovered.records()[2].spec, fleet_spec());
}

TEST(JobWal, StartedWithoutFinishedReplaysQueuedWithAttempts) {
    const std::string dir = fresh_dir("wal_started");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/queue.wal";
    {
        JobWal wal = JobWal::open(path, 7);
        wal.submitted(1, characterize_spec());
        wal.started(1);
        wal.attempt_failed(1, 1);
        wal.attempt_failed(1, 2);
        wal.started(1);
        // ...kill -9 here: no finished frame.
    }
    JobWal recovered = JobWal::open(path, 7);
    ASSERT_EQ(recovered.records().size(), 1u);
    EXPECT_EQ(recovered.records()[0].state, JobState::Queued);
    EXPECT_EQ(recovered.records()[0].attempts, 2u);  // fast-forward point
}

TEST(JobWal, TornTailIsDroppedNotFatal) {
    const std::string dir = fresh_dir("wal_torn");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/queue.wal";
    {
        JobWal wal = JobWal::open(path, 7);
        wal.submitted(1, characterize_spec());
        wal.submitted(2, fleet_spec());
    }
    // Chop the last frame mid-payload: a kill -9 at an arbitrary byte.
    const std::string bytes = read_file(path);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
    }
    JobWal recovered = JobWal::open(path, 7);
    EXPECT_GT(recovered.tail_dropped(), 0u);
    ASSERT_EQ(recovered.records().size(), 1u);
    EXPECT_EQ(recovered.records()[0].id, 1u);
    EXPECT_EQ(recovered.next_id(), 2u);
}

// ---------------------------------------------------------------------
// Guard-band widening (satellite: posterior uncertainty -> serving)

TEST(ServeGuardBand, WidensOnlyUncertainFaultingRows) {
    plugvolt::SafeStateMap map("test", Millivolts{-300.0});
    map.add({Megahertz{1000.0}, Millivolts{-100.0}, Millivolts{-200.0}, false});
    map.add({Megahertz{2000.0}, Millivolts{-80.0}, Millivolts{-180.0}, false});
    map.add({Megahertz{3000.0}, Millivolts{0.0}, Millivolts{-160.0}, true});
    std::vector<plugvolt::PlannedRow> planned(3);
    planned[0].anchored = true;   // probed to a one-step bracket
    planned[1].anchored = false;  // interpolated: 1-cell certificate
    planned[2].anchored = false;  // interpolated but fault-free

    const WidenedMap widened =
        widen_uncertain_rows(map, planned, Millivolts{10.0});
    EXPECT_EQ(widened.widened_rows, 1u);
    // Anchored row untouched.
    EXPECT_EQ(widened.map.rows()[0].onset, Millivolts{-100.0});
    // Uncertain faulting row: onset moved one step toward 0 — the
    // conservative edge of the certified bracket.
    EXPECT_EQ(widened.map.rows()[1].onset, Millivolts{-70.0});
    // Fault-free row untouched (serves from the sweep floor already).
    EXPECT_EQ(widened.map.rows()[2].onset, Millivolts{0.0});
    EXPECT_TRUE(widened.map.rows()[2].fault_free);
    // Crash boundaries are never widened.
    EXPECT_EQ(widened.map.rows()[1].crash, Millivolts{-180.0});

    // The serving consequence: the widened row's safe limit is exactly
    // one offset step shallower than the raw map's.
    const Millivolts guard{15.0};
    EXPECT_EQ(widened.map.safe_limit(Megahertz{2000.0}, guard).value(),
              map.safe_limit(Megahertz{2000.0}, guard).value() + 10.0);
    EXPECT_EQ(widened.map.safe_limit(Megahertz{1000.0}, guard),
              map.safe_limit(Megahertz{1000.0}, guard));
}

TEST(ServeGuardBand, WideningIsCappedAtZero) {
    plugvolt::SafeStateMap map("test", Millivolts{-300.0});
    map.add({Megahertz{1000.0}, Millivolts{-5.0}, Millivolts{-200.0}, false});
    std::vector<plugvolt::PlannedRow> planned(1);
    const WidenedMap widened =
        widen_uncertain_rows(map, planned, Millivolts{10.0});
    EXPECT_EQ(widened.map.rows()[0].onset, Millivolts{0.0});
}

TEST(ServeGuardBand, EmptyPlanMeansDirectlyProbedMapPassesThrough) {
    plugvolt::SafeStateMap map("test", Millivolts{-300.0});
    map.add({Megahertz{1000.0}, Millivolts{-100.0}, Millivolts{-200.0}, false});
    const WidenedMap widened = widen_uncertain_rows(map, {}, Millivolts{10.0});
    EXPECT_EQ(widened.widened_rows, 0u);
    EXPECT_EQ(plugvolt::state_hash(widened.map), plugvolt::state_hash(map));
}

TEST(ServeGuardBand, RejectsMismatchedPlanOrBadStep) {
    plugvolt::SafeStateMap map("test", Millivolts{-300.0});
    map.add({Megahertz{1000.0}, Millivolts{-100.0}, Millivolts{-200.0}, false});
    EXPECT_THROW(widen_uncertain_rows(
                     map, std::vector<plugvolt::PlannedRow>(3), Millivolts{10.0}),
                 ConfigError);
    EXPECT_THROW(widen_uncertain_rows(
                     map, std::vector<plugvolt::PlannedRow>(1), Millivolts{0.0}),
                 ConfigError);
}

// An Adaptive sweep's interpolated rows really do serve one step
// shallower through the daemon than the raw map would grant.
TEST(ServeGuardBand, AdaptiveUncertaintyWidensTheServedClamp) {
    plugvolt::ParallelCharacterizerConfig cfg;
    cfg.mode = plugvolt::SweepMode::Adaptive;
    cfg.cell.offset_step = Millivolts{10.0};
    cfg.planner = infer::adaptive_planner();
    plugvolt::ParallelCharacterizer characterizer(sim::paper_profiles()[0], cfg);
    const plugvolt::SafeStateMap raw = characterizer.characterize();
    const auto& planned = characterizer.planned_rows();
    ASSERT_EQ(planned.size(), raw.rows().size());

    const WidenedMap widened =
        widen_uncertain_rows(raw, planned, cfg.cell.offset_step);
    ASSERT_GT(widened.widened_rows, 0u)
        << "adaptive sweep certified no interpolated faulting rows";

    const Millivolts guard{15.0};
    for (std::size_t i = 0; i < raw.rows().size(); ++i) {
        const auto& row = raw.rows()[i];
        const Millivolts raw_limit = raw.safe_limit(row.freq, guard);
        const Millivolts served = widened.map.safe_limit(row.freq, guard);
        if (!planned[i].anchored && !row.fault_free) {
            const double expected =
                std::min(0.0, raw_limit.value() + cfg.cell.offset_step.value());
            EXPECT_EQ(served.value(), expected) << "row " << i;
        } else {
            EXPECT_EQ(served, raw_limit) << "row " << i;
        }
    }
}

// ---------------------------------------------------------------------
// CampaignDaemon

TEST(CampaignDaemon, CharacterizeJobCompletesAndServes) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_basic");
    CampaignDaemon daemon(config);

    // Fail closed before anything completes.
    EXPECT_EQ(daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-50.0}).decision,
              DvfsDecision::Denied);

    const std::uint64_t id = daemon.submit(characterize_spec());
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(daemon.queue_depth(), 1u);
    daemon.run_until_idle();

    const std::optional<JobRecord> record = daemon.job(id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->state, JobState::Completed);
    EXPECT_EQ(record->attempts, 1u);
    EXPECT_NE(record->result_fingerprint, 0u);
    EXPECT_GT(record->progress_units, 0u);

    // The journaled fingerprint is the direct characterizer's map hash.
    plugvolt::ParallelCharacterizerConfig cfg;
    cfg.cell.offset_step = Millivolts{characterize_spec().char_step_mv};
    cfg.mode = plugvolt::SweepMode::Bisection;
    cfg.seed = characterize_spec().seed;
    plugvolt::ParallelCharacterizer direct(sim::paper_profiles()[0], cfg);
    const plugvolt::SafeStateMap map = direct.characterize();
    EXPECT_EQ(record->result_fingerprint, plugvolt::state_hash(map));
    EXPECT_EQ(record->progress_units, map.rows().size());

    // Serving: a shallow request is granted verbatim, a deep one clamps
    // to the committed safe limit, both pinned to the completed job.
    const Megahertz f = map.rows().front().freq;
    const Millivolts limit = map.safe_limit(f, config.guard);
    const DvfsVerdict shallow = daemon.request_undervolt(f, Millivolts{-1.0});
    EXPECT_EQ(shallow.decision, DvfsDecision::Granted);
    EXPECT_EQ(shallow.applied, Millivolts{-1.0});
    EXPECT_EQ(shallow.source_job, id);
    const DvfsVerdict deep = daemon.request_undervolt(f, Millivolts{-400.0});
    EXPECT_EQ(deep.decision, DvfsDecision::Clamped);
    EXPECT_EQ(deep.applied, limit);  // non-adaptive sweep: no widening

    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.jobs_submitted, 1u);
    EXPECT_EQ(stats.jobs_completed, 1u);
    EXPECT_EQ(stats.dvfs_denied, 1u);
    EXPECT_EQ(stats.dvfs_granted, 1u);
    EXPECT_EQ(stats.dvfs_clamped, 1u);
}

TEST(CampaignDaemon, RejectsInvalidSpecs) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_invalid");
    CampaignDaemon daemon(config);
    JobSpec bad = characterize_spec();
    bad.profile_index = 999;
    EXPECT_THROW(daemon.submit(bad), ConfigError);
    bad = characterize_spec();
    bad.char_step_mv = 0.0;
    EXPECT_THROW(daemon.submit(bad), ConfigError);
    bad = characterize_spec();
    bad.sweep_mode = 9;
    EXPECT_THROW(daemon.submit(bad), ConfigError);
    bad = fleet_spec(0);
    EXPECT_THROW(daemon.submit(bad), ConfigError);
    EXPECT_EQ(daemon.queue_depth(), 0u);
}

TEST(CampaignDaemon, AdmissionControlRejectsDeterministically) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_admission");
    config.max_queue_depth = 2;
    CampaignDaemon daemon(config);
    const std::uint64_t a = daemon.submit(characterize_spec());
    const std::uint64_t b = daemon.submit(characterize_spec());
    const std::uint64_t c = daemon.submit(characterize_spec());
    EXPECT_EQ(daemon.queue_depth(), 2u);
    EXPECT_EQ(daemon.job(a)->state, JobState::Queued);
    EXPECT_EQ(daemon.job(b)->state, JobState::Queued);
    EXPECT_EQ(daemon.job(c)->state, JobState::Rejected);
    EXPECT_EQ(daemon.job(c)->detail, "queue full");
    EXPECT_EQ(daemon.stats().jobs_rejected, 1u);

    // The rejection is part of the durable queue identity.
    const std::uint64_t fingerprint = daemon.queue_fingerprint();
    DaemonConfig again = config;
    again.state_dir = fresh_dir("daemon_admission2");
    CampaignDaemon replay(again);
    (void)replay.submit(characterize_spec());
    (void)replay.submit(characterize_spec());
    (void)replay.submit(characterize_spec());
    EXPECT_EQ(replay.queue_fingerprint(), fingerprint);
}

TEST(CampaignDaemon, RetriesInjectedFailuresWithBoundedBudget) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_retry");
    CampaignDaemon daemon(config);

    // Two injected failures + the real execution fit max_attempts = 3.
    JobSpec flaky = characterize_spec();
    flaky.inject_fail_attempts = 2;
    const std::uint64_t ok = daemon.submit(flaky);
    // Five injected failures exhaust the budget: terminal Failed.
    JobSpec doomed = characterize_spec();
    doomed.inject_fail_attempts = 5;
    const std::uint64_t bad = daemon.submit(doomed);
    daemon.run_until_idle();

    EXPECT_EQ(daemon.job(ok)->state, JobState::Completed);
    EXPECT_EQ(daemon.job(ok)->attempts, 3u);
    EXPECT_NE(daemon.job(ok)->result_fingerprint, 0u);
    EXPECT_EQ(daemon.job(bad)->state, JobState::Failed);
    EXPECT_EQ(daemon.job(bad)->attempts, 3u);
    EXPECT_NE(daemon.job(bad)->detail.find("injected job failure"), std::string::npos);
    EXPECT_EQ(daemon.stats().job_attempts_failed, 5u);
    // A failed job never commits serving state.
    EXPECT_EQ(daemon.stats().jobs_completed, 1u);
}

TEST(CampaignDaemon, WatchdogQuarantinesOverBudgetJobs) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_watchdog");
    CampaignDaemon daemon(config);

    JobSpec wedged = characterize_spec();
    wedged.deadline_units = 2;  // the sweep delivers one unit per row
    const std::uint64_t slow = daemon.submit(wedged);
    const std::uint64_t next = daemon.submit(characterize_spec());
    daemon.run_until_idle();

    EXPECT_EQ(daemon.job(slow)->state, JobState::Quarantined);
    EXPECT_NE(daemon.job(slow)->detail.find("deadline exceeded"), std::string::npos);
    // The queue moved on: the wedged job did not block its successor.
    EXPECT_EQ(daemon.job(next)->state, JobState::Completed);
    EXPECT_EQ(daemon.stats().jobs_quarantined, 1u);

    // A job that fits its budget exactly completes.
    JobSpec exact = characterize_spec();
    exact.deadline_units = daemon.job(next)->progress_units;
    const std::uint64_t fits = daemon.submit(exact);
    daemon.run_until_idle();
    EXPECT_EQ(daemon.job(fits)->state, JobState::Completed);
}

TEST(CampaignDaemon, CampaignAndFleetJobsComplete) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_kinds");
    CampaignDaemon daemon(config);
    const std::uint64_t campaign_id = daemon.submit(campaign_spec());
    const std::uint64_t fleet_id = daemon.submit(fleet_spec());
    daemon.run_until_idle();

    const JobRecord campaign_job = *daemon.job(campaign_id);
    EXPECT_EQ(campaign_job.state, JobState::Completed);
    EXPECT_EQ(campaign_job.progress_units, 4u);  // 2 attacks x 2 defenses
    EXPECT_NE(campaign_job.detail.find("4 cells"), std::string::npos);

    const JobRecord fleet_job = *daemon.job(fleet_id);
    EXPECT_EQ(fleet_job.state, JobState::Completed);
    EXPECT_EQ(fleet_job.progress_units, 2u);  // one unit per fleet member

    // The fleet job committed a queryable population envelope.
    const std::optional<EnvelopeView> envelope = daemon.query_envelope();
    ASSERT_TRUE(envelope.has_value());
    EXPECT_EQ(envelope->source_job, fleet_id);
    EXPECT_EQ(envelope->units, 2u);
    EXPECT_EQ(envelope->state_hash, fleet_job.result_fingerprint);
    EXPECT_LT(envelope->clamp.value(), 0.0);
}

TEST(CampaignDaemon, MidFlightRequestsServeFromLastCommittedMap) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_midflight");
    CampaignDaemon daemon(config);
    const std::uint64_t first = daemon.submit(characterize_spec());
    daemon.run_until_idle();
    const DvfsVerdict before =
        daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0});
    ASSERT_EQ(before.source_job, first);

    // Re-characterization with a different seed; every mid-flight
    // request must keep answering from job 1's committed map.
    JobSpec refresh = characterize_spec();
    refresh.seed = 0xBEEF;
    const std::uint64_t second = daemon.submit(refresh);
    std::vector<DvfsVerdict> midflight;
    daemon.set_progress([&](const JobRecord& job, std::uint64_t) {
        if (job.id == second)
            midflight.push_back(
                daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0}));
    });
    daemon.run_until_idle();

    ASSERT_FALSE(midflight.empty());
    for (const DvfsVerdict& verdict : midflight) {
        EXPECT_EQ(verdict.source_job, first);
        EXPECT_EQ(verdict, before);
    }
    // After commit, the new map takes over.
    EXPECT_EQ(daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0}).source_job,
              second);
}

TEST(CampaignDaemon, AdaptiveJobsServeTheWidenedMap) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_adaptive");
    CampaignDaemon daemon(config);
    JobSpec spec = characterize_spec();
    spec.sweep_mode = static_cast<std::uint8_t>(plugvolt::SweepMode::Adaptive);
    const std::uint64_t id = daemon.submit(spec);
    daemon.run_until_idle();
    ASSERT_EQ(daemon.job(id)->state, JobState::Completed);

    // Reference: the same adaptive sweep run directly, plus widening.
    plugvolt::ParallelCharacterizerConfig cfg;
    cfg.cell.offset_step = Millivolts{spec.char_step_mv};
    cfg.mode = plugvolt::SweepMode::Adaptive;
    cfg.seed = spec.seed;
    cfg.planner = infer::adaptive_planner();
    plugvolt::ParallelCharacterizer direct(sim::paper_profiles()[0], cfg);
    const plugvolt::SafeStateMap raw = direct.characterize();
    const WidenedMap widened = widen_uncertain_rows(raw, direct.planned_rows(),
                                                    cfg.cell.offset_step);
    ASSERT_GT(widened.widened_rows, 0u);

    // The journaled fingerprint is the RAW map's (resume identity), but
    // every verdict comes from the widened map: deep requests at an
    // uncertain row clamp one offset step shallower than the raw map
    // would allow.
    EXPECT_EQ(daemon.job(id)->result_fingerprint, plugvolt::state_hash(raw));
    for (std::size_t i = 0; i < raw.rows().size(); ++i) {
        const Megahertz f = raw.rows()[i].freq;
        const DvfsVerdict verdict = daemon.request_undervolt(f, Millivolts{-400.0});
        EXPECT_EQ(verdict.decision, DvfsDecision::Clamped);
        EXPECT_EQ(verdict.applied, widened.map.safe_limit(f, config.guard))
            << "row " << i;
    }
}

TEST(CampaignDaemon, ResumeAdoptsTerminalJobsAndRehydratesServing) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_resume");
    std::uint64_t fingerprint = 0;
    std::uint64_t queue_fp = 0;
    DvfsVerdict verdict_before;
    {
        CampaignDaemon daemon(config);
        const std::uint64_t id = daemon.submit(characterize_spec());
        (void)daemon.submit(fleet_spec());
        daemon.run_until_idle();
        fingerprint = daemon.job(id)->result_fingerprint;
        queue_fp = daemon.queue_fingerprint();
        verdict_before = daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0});
    }
    CampaignDaemon revived(config);
    EXPECT_EQ(revived.queue_fingerprint(), queue_fp);
    EXPECT_EQ(revived.job(1)->result_fingerprint, fingerprint);
    EXPECT_EQ(revived.stats().jobs_resumed, 2u);
    EXPECT_EQ(revived.stats().rehydration_drops, 0u);
    // Serving state was rebuilt from the job journals and verified.
    EXPECT_EQ(revived.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0}),
              verdict_before);
    ASSERT_TRUE(revived.query_envelope().has_value());
}

TEST(CampaignDaemon, CorruptJobJournalDropsServingStateFailClosed) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_drop");
    {
        CampaignDaemon daemon(config);
        (void)daemon.submit(characterize_spec());
        daemon.run_until_idle();
        ASSERT_EQ(daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-50.0}).decision,
                  DvfsDecision::Granted);
    }
    // Vaporize the engine journal the committed map came from: the
    // revived daemon must NOT serve from unverifiable state.  (The
    // journal is rebuilt by re-characterization during rehydration, so
    // corrupt it with a mismatched header instead of deleting it.)
    std::filesystem::remove(config.state_dir + "/job-1.pvj");
    {
        std::ofstream out(config.state_dir + "/job-1.pvj", std::ios::binary);
        out << "not a journal";
    }
    CampaignDaemon revived(config);
    EXPECT_EQ(revived.stats().rehydration_drops, 1u);
    EXPECT_EQ(revived.request_undervolt(Megahertz{3000.0}, Millivolts{-50.0}).decision,
              DvfsDecision::Denied);
}

TEST(CampaignDaemon, ConfigHashGuardsTheStateDir) {
    DaemonConfig config;
    config.state_dir = fresh_dir("daemon_confhash");
    { CampaignDaemon daemon(config); }
    DaemonConfig other = config;
    other.guard = Millivolts{30.0};
    EXPECT_THROW(CampaignDaemon{other}, ConfigError);
    // workers is result-neutral and not part of the identity.
    DaemonConfig more_workers = config;
    more_workers.workers = 4;
    EXPECT_NO_THROW(CampaignDaemon{more_workers});
}

// ---------------------------------------------------------------------
// One worker means no pool

std::atomic<std::uint64_t> g_pool_submissions{0};

void count_submission(std::uint64_t, std::size_t) { ++g_pool_submissions; }

/// Counts ThreadPool submissions (every pool, every thread) while in
/// scope, through the dispatch tap; restores the previous tap on exit.
class SubmissionCounter {
public:
    SubmissionCounter() : previous_(ThreadPool::set_dispatch_tap(&count_submission)) {
        g_pool_submissions = 0;
    }
    ~SubmissionCounter() { ThreadPool::set_dispatch_tap(previous_); }
    SubmissionCounter(const SubmissionCounter&) = delete;
    SubmissionCounter& operator=(const SubmissionCounter&) = delete;

    [[nodiscard]] std::uint64_t count() const { return g_pool_submissions; }

private:
    ThreadPool::DispatchTap previous_;
};

TEST(OneWorker, SweepsFleetsAndDaemonJobsSubmitNoPoolTasks) {
    const SubmissionCounter submissions;
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();

    plugvolt::ParallelCharacterizerConfig sweep;
    sweep.cell.offset_step = Millivolts{10.0};
    sweep.mode = plugvolt::SweepMode::Bisection;
    sweep.workers = 1;
    (void)plugvolt::ParallelCharacterizer(profile, sweep).characterize();
    EXPECT_EQ(submissions.count(), 0u) << "one-worker sweep";

    fleet::FleetConfig fleet_config;
    fleet_config.units = 2;
    fleet_config.workers = 1;
    fleet_config.sweep = sweep;
    (void)fleet::FleetOrchestrator(fleet::SiliconLot(profile, {}), fleet_config)
        .characterize();
    EXPECT_EQ(submissions.count(), 0u) << "one-worker fleet";

    DaemonConfig config;
    config.state_dir = fresh_dir("one_worker");
    config.workers = 1;
    CampaignDaemon daemon(config);
    const std::vector<std::uint64_t> ids = {daemon.submit(characterize_spec()),
                                            daemon.submit(campaign_spec()),
                                            daemon.submit(fleet_spec())};
    daemon.run_until_idle();
    for (const std::uint64_t id : ids)
        EXPECT_EQ(daemon.job(id)->state, JobState::Completed) << "job " << id;
    EXPECT_EQ(submissions.count(), 0u) << "one-worker daemon jobs";

    // The tap is live: two workers do go through a pool.
    sweep.workers = 2;
    (void)plugvolt::ParallelCharacterizer(profile, sweep).characterize();
    EXPECT_GT(submissions.count(), 0u) << "two-worker sweep";
}

}  // namespace
}  // namespace pv::serve
