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
// like the single-unit soak does.  The seed loop is the shared harness
// in resume_soak.hpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "fleet/fleet_orchestrator.hpp"
#include "fleet/silicon_lot.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/journal.hpp"
#include "resume_soak.hpp"
#include "sim/cpu_profile.hpp"
#include "util/rng.hpp"

namespace pv::fleet {
namespace {

constexpr std::uint64_t kUnits = 6;

class FleetSoakRun {
public:
    FleetSoakRun(const SiliconLot& lot, std::uint64_t seed,
                 const std::optional<resilience::FaultPlan>& faults, std::string path)
        : fleet_(lot, config(seed, faults)), path_(std::move(path)) {
        std::remove(path_.c_str());
    }
    ~FleetSoakRun() { std::remove(path_.c_str()); }
    FleetSoakRun(const FleetSoakRun&) = delete;
    FleetSoakRun& operator=(const FleetSoakRun&) = delete;

    void reference(std::uint64_t& fingerprint) {
        fingerprint = state_hash(fleet_.characterize());
    }

    /// A seed-derived number of delivered units in [1, kUnits-1]: every
    /// delivered unit's rows are already durable.
    [[nodiscard]] std::uint64_t kill_after(std::uint64_t seed) const {
        return 1 + seed % (kUnits - 1);
    }

    void run(const std::function<void()>& deliver) {
        resilience::SweepJournal journal =
            resilience::SweepJournal::open(path_, fleet_.config_hash(), {});
        (void)fleet_.characterize(
            journal, [&deliver](std::uint64_t, const plugvolt::SafeStateMap&) { deliver(); });
    }

    void resume(std::uint64_t kill_after, std::uint64_t& fingerprint) {
        resilience::SweepJournal recovered =
            resilience::SweepJournal::open(path_, fleet_.config_hash(), {});
        // At least the delivered units' rows survived the kill; the
        // whole fleet did not.
        EXPECT_GE(recovered.rows().size(), kill_after * fleet_.row_stride());
        EXPECT_LT(recovered.rows().size(), kUnits * fleet_.row_stride());
        fingerprint = state_hash(fleet_.characterize(recovered));
    }

    void check(std::uint64_t kill_after, std::uint64_t reference) {
        EXPECT_GE(fleet_.stats().units_resumed, kill_after);
        EXPECT_EQ(fleet_.stats().units, kUnits);
        // The resumed journal now holds the full fleet: a second resume
        // adopts every unit without probing a single cell.
        resilience::SweepJournal complete =
            resilience::SweepJournal::open(path_, fleet_.config_hash(), {});
        EXPECT_EQ(complete.rows().size(), kUnits * fleet_.row_stride());
        EXPECT_EQ(state_hash(fleet_.characterize(complete)), reference);
        EXPECT_EQ(fleet_.stats().cells_evaluated, 0u);
        EXPECT_EQ(fleet_.stats().units_resumed, kUnits);
    }

private:
    static FleetConfig config(std::uint64_t seed,
                              const std::optional<resilience::FaultPlan>& faults) {
        FleetConfig config;
        config.units = kUnits;
        config.sweep.cell.offset_step = Millivolts{10.0};
        config.sweep.mode = plugvolt::SweepMode::Bisection;
        config.sweep.seed = seed;
        config.workers = 2;
        config.envelope.mad_floor_mv = 10.0;
        if (faults) {
            resilience::FaultPlan plan = *faults;
            plan.seed = mix_seed(seed, 0xFA01);
            config.sweep.cell.retry.max_attempts = 8;
            config.sweep.fault_plan = plan;
        }
        return config;
    }

    FleetOrchestrator fleet_;
    std::string path_;
};

TEST(FleetResumeSoak, KillAndResumeIsBitIdenticalAcrossSeeds) {
    const SiliconLot lot(sim::cometlake_i7_10510u(), {});
    test::kill_resume_soak(0xF1EE'2026, [&](std::uint64_t i, std::uint64_t seed,
                                            const std::optional<resilience::FaultPlan>& faults) {
        return std::make_unique<FleetSoakRun>(
            lot, seed, faults,
            ::testing::TempDir() + "pv_fleet_resume_soak_" + std::to_string(i) + ".pvj");
    });
}

}  // namespace
}  // namespace pv::fleet
