// The kill/resume soak harness shared by the sweep, adaptive, fleet and
// daemon soaks.
//
// For each of kSoakSeeds seeds: run the workload uninterrupted as the
// reference, replay it against fresh durable state but kill it at a
// seed-derived delivery (a KillSignal thrown from its progress hook),
// revive it from what the kill left on disk, and require the revived
// run's fingerprint to equal the reference's.  Odd seeds run the whole
// differential under injected environment faults (busy mailboxes, torn
// reads).  What a run delivers, how it is revived and what it checks
// beyond the fingerprint stay with the run under test.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/journal.hpp"
#include "util/rng.hpp"

namespace pv::test {

/// Deliberately not derived from std::exception: models SIGKILL, which
/// no retry loop in the run under test may swallow.
struct KillSignal {};

inline constexpr std::uint64_t kSoakSeeds = 25;

/// Run the kill/resume differential over seeds mix_seed(seed_root, i).
/// `make_run(i, seed, faults)` returns a pointer to seed i's run under
/// test; `faults` holds the environment (rates only) on odd seeds.  The
/// run provides, in the order they are called:
///   void reference(std::uint64_t& fingerprint);  // uninterrupted
///   std::uint64_t kill_after(std::uint64_t seed) const;  // >= 1
///   void run(const std::function<void()>& deliver);  // killable replay
///   void resume(std::uint64_t kill_after, std::uint64_t& fingerprint);
///   void check(std::uint64_t kill_after, std::uint64_t reference);
/// `run` calls deliver() after each durable unit of work; `resume`
/// revives from what the killed replay left; `check` asserts the rest.
/// A fatal failure in any step ends the soak.
template <class MakeRun>
void kill_resume_soak(std::uint64_t seed_root, MakeRun make_run) {
    for (std::uint64_t i = 0; i < kSoakSeeds; ++i) {
        const std::uint64_t seed = mix_seed(seed_root, i);
        SCOPED_TRACE("seed index " + std::to_string(i));
        std::optional<resilience::FaultPlan> faults;
        if (i % 2 == 1) {
            faults.emplace();
            faults->set_rate(resilience::FaultKind::MailboxBusy, 0.1);
            faults->set_rate(resilience::FaultKind::StaleRead, 0.05);
        }
        const auto run = make_run(i, seed, faults);

        std::uint64_t reference = 0;
        run->reference(reference);
        if (::testing::Test::HasFatalFailure()) return;

        const std::uint64_t kill_after = run->kill_after(seed);
        std::uint64_t delivered = 0;
        bool killed = false;
        try {
            run->run([&delivered, kill_after] {
                if (++delivered == kill_after) throw KillSignal{};
            });
        } catch (const KillSignal&) {
            killed = true;
        }
        ASSERT_TRUE(killed) << "kill point " << kill_after << " past the whole run";

        std::uint64_t resumed = 0;
        run->resume(kill_after, resumed);
        if (::testing::Test::HasFatalFailure()) return;
        EXPECT_EQ(resumed, reference);
        run->check(kill_after, reference);
        if (::testing::Test::HasFatalFailure()) return;
    }
}

/// The sweep engine's soak run, Bisection or Adaptive: the engine
/// journals each delivered row, and a resume adopts the journaled rows.
class SweepSoakRun {
public:
    SweepSoakRun(const sim::CpuProfile& profile, plugvolt::SweepMode mode, std::uint64_t seed,
                 const std::optional<resilience::FaultPlan>& faults, std::string path)
        : engine_(profile, config(mode, seed, faults)), path_(std::move(path)) {
        std::remove(path_.c_str());
    }
    ~SweepSoakRun() { std::remove(path_.c_str()); }
    SweepSoakRun(const SweepSoakRun&) = delete;
    SweepSoakRun& operator=(const SweepSoakRun&) = delete;

    void reference(std::uint64_t& fingerprint) {
        fingerprint = plugvolt::state_hash(engine_.characterize());
        rows_ = engine_.stats().rows;
        ASSERT_GT(rows_, 1u);
    }

    /// A seed-derived number of delivered rows in [1, rows-1].
    [[nodiscard]] std::uint64_t kill_after(std::uint64_t seed) const {
        return 1 + seed % (rows_ - 1);
    }

    void run(const std::function<void()>& deliver) {
        resilience::SweepJournal journal =
            resilience::SweepJournal::open(path_, engine_.config_hash(), {});
        (void)engine_.characterize(journal,
                                   [&deliver](const plugvolt::FreqCharacterization&) { deliver(); });
    }

    void resume(std::uint64_t kill_after, std::uint64_t& fingerprint) {
        resilience::SweepJournal recovered =
            resilience::SweepJournal::open(path_, engine_.config_hash(), {});
        EXPECT_GE(recovered.rows().size(), kill_after);
        EXPECT_LT(recovered.rows().size(), rows_);
        fingerprint = plugvolt::state_hash(engine_.characterize(recovered));
    }

    void check(std::uint64_t kill_after, std::uint64_t /*reference*/) {
        EXPECT_GE(engine_.stats().rows_resumed, kill_after);
        EXPECT_EQ(engine_.stats().rows, rows_);
    }

private:
    static plugvolt::ParallelCharacterizerConfig config(
        plugvolt::SweepMode mode, std::uint64_t seed,
        const std::optional<resilience::FaultPlan>& faults) {
        plugvolt::ParallelCharacterizerConfig config;
        config.cell.offset_step = Millivolts{10.0};
        config.workers = 2;
        config.mode = mode;
        config.seed = seed;
        if (mode == plugvolt::SweepMode::Adaptive) {
            config.refine_window = 2;
            config.planner = infer::adaptive_planner();
        }
        if (faults) {
            resilience::FaultPlan plan = *faults;
            plan.seed = mix_seed(seed, 0xFA01);
            config.cell.retry.max_attempts = 8;
            config.fault_plan = plan;
        }
        return config;
    }

    plugvolt::ParallelCharacterizer engine_;
    std::string path_;
    std::uint64_t rows_ = 0;
};

}  // namespace pv::test
