// Shared fixtures for the PlugVolt test suite.
#pragma once

#include "os/kernel.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"

namespace pv::test {

/// The machine-plus-kernel pair nearly every integration test starts
/// from.  Construction order matters (the kernel borrows the machine),
/// which is exactly the detail this fixture keeps out of test files.
/// Defaults to the Comet Lake profile, the paper's primary target.
struct MachineRig {
    MachineRig(const sim::CpuProfile& profile, std::uint64_t seed)
        : machine(profile, seed), kernel(machine) {}
    explicit MachineRig(std::uint64_t seed = 71)
        : MachineRig(sim::cometlake_i7_10510u(), seed) {}

    sim::Machine machine;
    os::Kernel kernel;
};

/// The plain Algorithm 2 sweep: the engine with one worker (rows in
/// order on the calling thread) scanning every offset step of each row.
inline plugvolt::ParallelCharacterizerConfig exhaustive_sweep(
    const plugvolt::CharacterizerConfig& cell, std::uint64_t seed) {
    plugvolt::ParallelCharacterizerConfig config;
    config.cell = cell;
    config.workers = 1;
    config.mode = plugvolt::SweepMode::Exhaustive;
    config.seed = seed;
    return config;
}

inline plugvolt::SafeStateMap exhaustive_map(const sim::CpuProfile& profile,
                                             const plugvolt::CharacterizerConfig& cell,
                                             std::uint64_t seed) {
    return plugvolt::ParallelCharacterizer(profile, exhaustive_sweep(cell, seed))
        .characterize();
}

/// Characterize a profile once per process (5 mV steps keep it fast) and
/// hand out copies.  Characterization is deterministic, so sharing is safe.
inline const plugvolt::SafeStateMap& cached_map(const sim::CpuProfile& profile) {
    static std::map<std::string, plugvolt::SafeStateMap> cache;
    const auto it = cache.find(profile.name);
    if (it != cache.end()) return it->second;
    plugvolt::CharacterizerConfig config;
    config.offset_step = Millivolts{5.0};
    return cache.emplace(profile.name, exhaustive_map(profile, config, /*seed=*/0xC0FFEE))
        .first->second;
}

inline const plugvolt::SafeStateMap& comet_map() {
    return cached_map(sim::cometlake_i7_10510u());
}

}  // namespace pv::test
