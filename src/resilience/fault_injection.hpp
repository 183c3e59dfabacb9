// PlugVolt — deterministic environment fault injection.
//
// The attacks and sweeps in this tree assume a cooperative environment;
// real campaigns do not get one.  PMFault bricked boards on wedged PMBus
// writes, V0LTpwn engineered around thousands of crash-reboot cycles,
// and any long sweep meets EIO from /dev/cpu/*/msr, stale status reads
// and mailbox-busy stalls.  FaultInjector models that environment as a
// SEEDED, REPLAYABLE adversary: each fault kind draws from its own
// stateless splitmix64 stream indexed by (seed, kind, opportunity
// count), so whether the N-th rdmsr on a given machine faults is a pure
// function of (FaultPlan, seed, N) — independent of threads, wall time
// and every other kind's draws.  Reseeding per characterization cell
// (mix of the cell seed) makes injected-fault sweeps order- and
// worker-count-independent, exactly like the cell outcomes themselves.
//
// The injector is wired into os::MsrDriver (observer-style, non-owning)
// and into resilience::SweepJournal commits; with no injector attached
// every path is bit-for-bit the pre-injection one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "trace/metrics.hpp"

namespace pv::resilience {

/// Environment failure modes the injector can produce.
enum class FaultKind : std::uint8_t {
    RdmsrError,     ///< rdmsr fails outright (EIO from the driver)
    WrmsrError,     ///< wrmsr fails outright (EIO, write not applied)
    RdmsrTimeout,   ///< rdmsr IPI stalls, then fails (extra cycles burned)
    WrmsrTimeout,   ///< wrmsr IPI stalls, then fails
    StaleRead,      ///< rdmsr returns the previous value of that MSR (torn poll)
    MailboxBusy,    ///< 0x150 write bounces off a busy OCM mailbox
    FileWriteError, ///< journal/map file write fails (disk hiccup)
};

inline constexpr std::size_t kFaultKindCount = 7;

[[nodiscard]] const char* to_string(FaultKind kind);

/// Per-kind injection probabilities plus the stream seed.  A rate is the
/// probability that one opportunity (one driver call, one file write) of
/// that kind faults.
struct FaultPlan {
    std::uint64_t seed = 0xFA017;
    std::array<double, kFaultKindCount> rates{};

    void set_rate(FaultKind kind, double r) { rates[static_cast<std::size_t>(kind)] = r; }
    /// True when every rate is zero (the plan injects nothing).
    [[nodiscard]] bool empty() const;
    /// Throws ConfigError when any rate is outside [0, 1].
    void validate() const;
};

/// The seeded fault source.  should_inject() is the single decision
/// point; counters record opportunities and injections per kind for the
/// metrics snapshot and the tests.
class FaultInjector {
public:
    explicit FaultInjector(FaultPlan plan);

    /// Restart every per-kind stream from `seed` (the per-cell reseed the
    /// sharded sweep uses).  Cumulative counters are NOT reset.
    void reseed(std::uint64_t seed);

    /// Decide one opportunity of `kind`.  Deterministic in (plan.rates,
    /// current seed, number of prior opportunities of this kind since the
    /// last reseed).  A zero rate never fires and never advances the
    /// stream.
    [[nodiscard]] bool should_inject(FaultKind kind);

    [[nodiscard]] const FaultPlan& plan() const { return plan_; }
    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    [[nodiscard]] std::uint64_t opportunities(FaultKind kind) const {
        return opportunities_[static_cast<std::size_t>(kind)];
    }
    [[nodiscard]] std::uint64_t injected(FaultKind kind) const {
        return injected_[static_cast<std::size_t>(kind)];
    }
    [[nodiscard]] std::uint64_t injected_total() const;

    /// Per-kind opportunity/injection counters as metrics.
    [[nodiscard]] trace::MetricsSnapshot metrics_snapshot() const;

private:
    FaultPlan plan_;
    std::uint64_t seed_;
    std::array<std::uint64_t, kFaultKindCount> draws_{};   // reset on reseed
    std::array<std::uint64_t, kFaultKindCount> opportunities_{};
    std::array<std::uint64_t, kFaultKindCount> injected_{};
};

}  // namespace pv::resilience
