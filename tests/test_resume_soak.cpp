// Soak: the crash/resume differential of the write-ahead sweep journal.
//
// For every seed: run an uninterrupted journaled sweep, then replay the
// same configuration but kill the sweep (progress callback throws) at a
// seed-derived row and resume from the journal recovered off disk.  The
// resumed map must be state_hash-bit-identical to the uninterrupted one
// — the tentpole acceptance criterion.  Odd seeds additionally run the
// whole differential under an injected-fault environment (busy
// mailboxes, torn reads), which must not disturb bit-exactness either.
// The seed loop is the shared harness in resume_soak.hpp.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "plugvolt/parallel_characterizer.hpp"
#include "resilience/fault_injection.hpp"
#include "resume_soak.hpp"
#include "sim/cpu_profile.hpp"

namespace pv::plugvolt {
namespace {

TEST(ResumeSoak, KillAndResumeIsBitIdenticalAcrossSeeds) {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    test::kill_resume_soak(0x50AC'2026, [&](std::uint64_t i, std::uint64_t seed,
                                            const std::optional<resilience::FaultPlan>& faults) {
        return std::make_unique<test::SweepSoakRun>(
            profile, SweepMode::Bisection, seed, faults,
            ::testing::TempDir() + "pv_resume_soak_" + std::to_string(i) + ".pvj");
    });
}

}  // namespace
}  // namespace pv::plugvolt
