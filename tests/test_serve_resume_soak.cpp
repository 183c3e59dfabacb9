// Daemon kill/resume soak: 25 seeds, mixed job kinds, environment fault
// injection on odd seeds, kill -9 (modeled as a non-std::exception
// thrown from the progress hook — the daemon's retry loop must not
// swallow it) at a seed-derived work unit, then a fresh CampaignDaemon
// on the same state directory.  The revived daemon must finish the
// stream and end BIT-IDENTICAL to a never-killed reference: the same
// queue fingerprint (every job's id, spec, terminal state, result
// fingerprint, attempt count, unit count and detail), and the same
// committed serving state (envelope state hash included).  The seed loop
// is the shared harness in resume_soak.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "resilience/fault_injection.hpp"
#include "resume_soak.hpp"
#include "serve/daemon.hpp"
#include "util/rng.hpp"

namespace pv::serve {
namespace {

std::string soak_dir(const char* tag, std::uint64_t i) {
    const std::string dir =
        ::testing::TempDir() + "pv_serve_soak_" + tag + "_" + std::to_string(i);
    std::filesystem::remove_all(dir);
    return dir;
}

/// The per-seed job stream: a characterization (Bisection or Adaptive,
/// sometimes with injected job-level failures), then either a fleet run
/// or a small campaign cube.
std::vector<JobSpec> job_stream(std::uint64_t seed, std::uint64_t i) {
    std::vector<JobSpec> stream;
    JobSpec characterize;
    characterize.kind = JobKind::Characterize;
    characterize.seed = seed;
    characterize.sweep_mode = (i % 4 == 2) ? 2 : 1;  // Adaptive every 4th
    if (i % 3 == 0) characterize.inject_fail_attempts = 1;
    stream.push_back(characterize);

    if (i % 2 == 0) {
        JobSpec fleet;
        fleet.kind = JobKind::Fleet;
        fleet.seed = mix_seed(seed, 1);
        fleet.units = 2;
        stream.push_back(fleet);
    } else {
        JobSpec campaign;
        campaign.kind = JobKind::Campaign;
        campaign.seed = mix_seed(seed, 2);
        campaign.campaign_attacks = 2;
        campaign.campaign_defenses = 2;
        stream.push_back(campaign);
    }
    return stream;
}

/// One seed: a never-killed reference daemon, a victim killed mid-job at
/// a seed-derived delivered unit, and a daemon revived on the victim's
/// state directory.
class DaemonSoakRun {
public:
    DaemonSoakRun(std::uint64_t i, std::uint64_t seed,
                  const std::optional<resilience::FaultPlan>& faults)
        : i_(i), stream_(job_stream(seed, i)) {
        if (faults) config_.fault_plan = *faults;
    }
    ~DaemonSoakRun() {
        if (reference_) std::filesystem::remove_all(reference_->config().state_dir);
        if (revived_) std::filesystem::remove_all(revived_->config().state_dir);
    }
    DaemonSoakRun(const DaemonSoakRun&) = delete;
    DaemonSoakRun& operator=(const DaemonSoakRun&) = delete;

    void reference(std::uint64_t& fingerprint) {
        config_.state_dir = soak_dir("ref", i_);
        reference_.emplace(config_);
        for (const JobSpec& spec : stream_) (void)reference_->submit(spec);
        reference_->run_until_idle();
        fingerprint = reference_->queue_fingerprint();
        reference_env_ = reference_->query_envelope();
    }

    [[nodiscard]] std::uint64_t kill_after(std::uint64_t seed) const { return 1 + seed % 10; }

    void run(const std::function<void()>& deliver) {
        config_.state_dir = soak_dir("kill", i_);
        CampaignDaemon victim(config_);
        victim.set_progress([&deliver](const JobRecord&, std::uint64_t) { deliver(); });
        for (const JobSpec& spec : stream_) (void)victim.submit(spec);
        victim.run_until_idle();
    }

    void resume(std::uint64_t /*kill_after*/, std::uint64_t& fingerprint) {
        revived_.emplace(config_);
        revived_->run_until_idle();
        fingerprint = revived_->queue_fingerprint();
    }

    void check(std::uint64_t /*kill_after*/, std::uint64_t /*reference*/) {
        const std::vector<JobRecord> expect = reference_->jobs();
        const std::vector<JobRecord> got = revived_->jobs();
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t j = 0; j < expect.size(); ++j) {
            EXPECT_EQ(got[j].state, expect[j].state) << "job " << j;
            EXPECT_EQ(got[j].result_fingerprint, expect[j].result_fingerprint) << "job " << j;
            EXPECT_EQ(got[j].attempts, expect[j].attempts) << "job " << j;
            EXPECT_EQ(got[j].progress_units, expect[j].progress_units) << "job " << j;
            EXPECT_EQ(got[j].detail, expect[j].detail) << "job " << j;
        }

        // Committed serving state: identical envelope hash (fleet
        // seeds) and identical DVFS verdicts (every seed).
        const std::optional<EnvelopeView> revived_env = revived_->query_envelope();
        ASSERT_EQ(revived_env.has_value(), reference_env_.has_value());
        if (reference_env_) {
            EXPECT_EQ(revived_env->state_hash, reference_env_->state_hash);
            EXPECT_EQ(revived_env->source_job, reference_env_->source_job);
        }
        EXPECT_EQ(revived_->request_undervolt(Megahertz{3000.0}, Millivolts{-400.0}),
                  reference_->request_undervolt(Megahertz{3000.0}, Millivolts{-400.0}));
    }

private:
    std::uint64_t i_;
    std::vector<JobSpec> stream_;
    DaemonConfig config_;
    std::optional<CampaignDaemon> reference_;
    std::optional<EnvelopeView> reference_env_;
    std::optional<CampaignDaemon> revived_;
};

TEST(ServeResumeSoak, KilledDaemonResumesBitIdentical) {
    test::kill_resume_soak(0x5E12'2026, [](std::uint64_t i, std::uint64_t seed,
                                           const std::optional<resilience::FaultPlan>& faults) {
        return std::make_unique<DaemonSoakRun>(i, seed, faults);
    });
}

}  // namespace
}  // namespace pv::serve
