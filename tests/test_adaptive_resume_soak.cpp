// Soak: kill/resume bit-identity of journaled ADAPTIVE sweeps.
//
// Same differential as the bisection resume soak, but the interrupted
// sweep is posterior-driven: for every seed, run an uninterrupted
// journaled adaptive sweep, then kill a replay at a seed-derived row and
// resume from the journal recovered off disk.  The planner re-plans
// around the adopted rows — anchored rows contribute certified values
// without probes, interpolated rows are adopted verbatim — and the
// resumed map must be state_hash-bit-identical to the uninterrupted
// one.  Odd seeds run the whole differential under injected environment
// faults (busy mailboxes, torn reads).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/journal.hpp"
#include "sim/cpu_profile.hpp"
#include "util/rng.hpp"

namespace pv::plugvolt {
namespace {

struct KillSignal {};

TEST(AdaptiveResumeSoak, KillAndResumeIsBitIdenticalAcrossSeeds) {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    constexpr int kSeeds = 25;
    for (int i = 0; i < kSeeds; ++i) {
        const std::uint64_t seed = mix_seed(0xADA'50AC, static_cast<std::uint64_t>(i));
        SCOPED_TRACE("seed index " + std::to_string(i));

        ParallelCharacterizerConfig config;
        config.cell.offset_step = Millivolts{10.0};
        config.workers = 2;
        config.mode = SweepMode::Adaptive;
        config.refine_window = 2;
        config.seed = seed;
        config.planner = infer::adaptive_planner();
        if (i % 2 == 1) {
            resilience::FaultPlan plan;
            plan.seed = mix_seed(seed, 0xFA01);
            plan.set_rate(resilience::FaultKind::MailboxBusy, 0.1);
            plan.set_rate(resilience::FaultKind::StaleRead, 0.05);
            config.cell.retry.max_attempts = 8;
            config.fault_plan = plan;
        }

        ParallelCharacterizer engine(profile, config);
        const std::uint64_t reference = state_hash(engine.characterize());
        const std::uint64_t rows = engine.stats().rows;
        ASSERT_GT(rows, 1u);

        const std::string path =
            ::testing::TempDir() + "pv_adaptive_resume_soak_" + std::to_string(i) + ".pvj";
        // Kill after a seed-derived number of delivered rows in [1, rows-1].
        const std::uint64_t kill_after = 1 + seed % (rows - 1);
        std::remove(path.c_str());
        {
            resilience::SweepJournal journal =
                resilience::SweepJournal::open(path, engine.config_hash(), {});
            std::uint64_t delivered = 0;
            EXPECT_THROW(
                (void)engine.characterize(journal,
                                          [&delivered, kill_after](const FreqCharacterization&) {
                                              if (++delivered == kill_after) throw KillSignal{};
                                          }),
                KillSignal);
        }
        resilience::SweepJournal recovered =
            resilience::SweepJournal::open(path, engine.config_hash(), {});
        EXPECT_GE(recovered.rows().size(), kill_after);
        EXPECT_LT(recovered.rows().size(), rows);

        EXPECT_EQ(state_hash(engine.characterize(recovered)), reference);
        EXPECT_GE(engine.stats().rows_resumed, kill_after);
        EXPECT_EQ(engine.stats().rows, rows);
        std::remove(path.c_str());
    }
}

}  // namespace
}  // namespace pv::plugvolt
