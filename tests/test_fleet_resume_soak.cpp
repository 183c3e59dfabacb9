// Soak: the kill/resume differential at FLEET granularity.
//
// For every seed: run an uninterrupted fleet characterization as the
// reference, then replay the same lot + protocol against a shared fleet
// journal but kill the run (unit progress callback throws) after a
// seed-derived number of delivered units, resume from the journal
// recovered off disk, and assert the resumed PopulationEnvelope is
// state_hash-bit-identical to the uninterrupted one.  Odd seeds run the
// whole differential under an injected-fault environment (busy
// mailboxes, torn reads) — fleet resume must shrug that off exactly
// like the single-unit soak does.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fleet/fleet_orchestrator.hpp"
#include "fleet/silicon_lot.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/journal.hpp"
#include "sim/cpu_profile.hpp"
#include "util/rng.hpp"

namespace pv::fleet {
namespace {

struct KillSignal {};

TEST(FleetResumeSoak, KillAndResumeIsBitIdenticalAcrossSeeds) {
    const SiliconLot lot(sim::cometlake_i7_10510u(), {});
    constexpr int kSeeds = 25;
    constexpr std::uint64_t kUnits = 6;
    for (int i = 0; i < kSeeds; ++i) {
        const std::uint64_t seed = mix_seed(0xF1EE'2026, static_cast<std::uint64_t>(i));
        SCOPED_TRACE("seed index " + std::to_string(i));

        FleetConfig config;
        config.units = kUnits;
        config.sweep.cell.offset_step = Millivolts{10.0};
        config.sweep.mode = plugvolt::SweepMode::Bisection;
        config.sweep.seed = seed;
        config.workers = 2;
        config.envelope.mad_floor_mv = 10.0;
        if (i % 2 == 1) {
            resilience::FaultPlan plan;
            plan.seed = mix_seed(seed, 0xFA01);
            plan.set_rate(resilience::FaultKind::MailboxBusy, 0.1);
            plan.set_rate(resilience::FaultKind::StaleRead, 0.05);
            config.sweep.cell.retry.max_attempts = 8;
            config.sweep.fault_plan = plan;
        }

        FleetOrchestrator fleet(lot, config);
        const std::uint64_t reference = state_hash(fleet.characterize());

        const std::string path =
            ::testing::TempDir() + "pv_fleet_resume_soak_" + std::to_string(i) + ".pvj";
        // Kill after a seed-derived number of delivered units in
        // [1, kUnits-1]: every delivered unit's rows are already durable.
        const std::uint64_t kill_after = 1 + seed % (kUnits - 1);
        std::remove(path.c_str());
        {
            resilience::SweepJournal journal =
                resilience::SweepJournal::open(path, fleet.config_hash(), {});
            std::uint64_t delivered = 0;
            EXPECT_THROW(
                (void)fleet.characterize(
                    journal, [&delivered, kill_after](std::uint64_t,
                                                      const plugvolt::SafeStateMap&) {
                        if (++delivered == kill_after) throw KillSignal{};
                    }),
                KillSignal);
        }
        resilience::SweepJournal recovered =
            resilience::SweepJournal::open(path, fleet.config_hash(), {});
        // At least the delivered units' rows survived the kill; the
        // whole fleet did not.
        EXPECT_GE(recovered.rows().size(), kill_after * fleet.row_stride());
        EXPECT_LT(recovered.rows().size(), kUnits * fleet.row_stride());

        EXPECT_EQ(state_hash(fleet.characterize(recovered)), reference);
        EXPECT_GE(fleet.stats().units_resumed, kill_after);
        EXPECT_EQ(fleet.stats().units, kUnits);
        // The resumed journal now holds the full fleet: a second resume
        // adopts every unit without probing a single cell.
        resilience::SweepJournal complete =
            resilience::SweepJournal::open(path, fleet.config_hash(), {});
        EXPECT_EQ(complete.rows().size(), kUnits * fleet.row_stride());
        EXPECT_EQ(state_hash(fleet.characterize(complete)), reference);
        EXPECT_EQ(fleet.stats().cells_evaluated, 0u);
        EXPECT_EQ(fleet.stats().units_resumed, kUnits);
        std::remove(path.c_str());
    }
}

}  // namespace
}  // namespace pv::fleet
