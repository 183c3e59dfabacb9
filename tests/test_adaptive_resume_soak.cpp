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
// faults (busy mailboxes, torn reads).  The seed loop is the shared
// harness in resume_soak.hpp.
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

TEST(AdaptiveResumeSoak, KillAndResumeIsBitIdenticalAcrossSeeds) {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    test::kill_resume_soak(0xADA'50AC, [&](std::uint64_t i, std::uint64_t seed,
                                           const std::optional<resilience::FaultPlan>& faults) {
        return std::make_unique<test::SweepSoakRun>(
            profile, SweepMode::Adaptive, seed, faults,
            ::testing::TempDir() + "pv_adaptive_resume_soak_" + std::to_string(i) + ".pvj");
    });
}

}  // namespace
}  // namespace pv::plugvolt
