// Shared fixtures for the PlugVolt test suite.
#pragma once

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>

#include "os/kernel.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"

namespace pv::test {

/// Redirects std::cerr (the log sink) into a buffer while in scope.  Swap
/// it on the main thread, before workers start and after they join, so
/// it is race-free while emission itself stays concurrent.
class CerrCapture {
public:
    CerrCapture() : previous_(std::cerr.rdbuf(buffer_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(previous_); }
    CerrCapture(const CerrCapture&) = delete;
    CerrCapture& operator=(const CerrCapture&) = delete;

    [[nodiscard]] std::string str() const { return buffer_.str(); }

private:
    std::ostringstream buffer_;
    std::streambuf* previous_;
};

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

/// A driver access (try_rdmsr / try_wrmsr / try_ioctl_wrmsr) that must
/// complete: fails the test unless its status is Ok, and hands the result
/// on, e.g. `test::msr_ok(msr.try_rdmsr(0, 0, addr)).value`.
template <class MsrResult>
MsrResult msr_ok(MsrResult result) {
    EXPECT_EQ(result.status, os::MsrStatus::Ok) << os::to_string(result.status);
    return result;
}

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
