// PlugVolt — bounded retry with deterministic exponential backoff.
//
// Real sweeps and campaigns survive a flaky environment (EIO from the
// msr driver, mailbox-busy stalls, machines that die mid-undervolt) by
// retrying with backoff.  This repo's retries must additionally be
// DETERMINISTIC: every delay, including its jitter, is a pure function
// of (policy, seed, retry index), drawn through the same splitmix64
// derivation the sharded drivers use for their cell seeds — so a run
// with injected faults replays bit-exactly and a backoff never consults
// wall time or shared RNG state.
//
// Monotonicity contract (pinned by the property tests): with the
// validated constraint multiplier >= 1 + jitter, the backoff sequence is
// non-decreasing in the retry index and capped at max_delay:
//   delay(k) = min(base * multiplier^k * (1 + jitter * u_k), max_delay)
// where u_k in [0, 1) comes from mix_seed(seed, k).  The (k+1)-th
// pre-cap delay is at least base * m^k * (1 + jitter) >= every jittered
// k-th delay, and min(-, max_delay) preserves the ordering.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace pv::resilience {

/// Backoff parameters shared by every retrying caller (characterizer
/// mailbox writes, polling-module reads, campaign machine rebuilds,
/// journal commits).
struct RetryPolicy {
    /// Total attempts (first try included); must be at least 1.
    unsigned max_attempts = 3;
    /// Delay before the first retry.
    Picoseconds base_delay = microseconds(2.0);
    /// Growth factor per retry; must be >= 1 + jitter (see header note).
    double multiplier = 2.0;
    /// Cap on any single delay.
    Picoseconds max_delay = milliseconds(1.0);
    /// Jitter fraction in [0, 1): delay is stretched by up to this much,
    /// deterministically from the seed.
    double jitter = 0.25;

    /// Throws ConfigError when the parameters violate the contract.
    void validate() const;

    /// Delay before retry `retry_index` (0 = first retry), jittered from
    /// `seed`.  Pure function of its arguments.
    [[nodiscard]] Picoseconds backoff(unsigned retry_index, std::uint64_t seed) const;
};

/// Iterator-style attempt budget for retry loops:
///
///   RetrySchedule sched(policy, seed);
///   while (sched.next_attempt()) {
///       wait(sched.backoff());          // zero for the first attempt
///       if (try_the_thing()) break;
///   }
///
/// Validates the policy at construction.
class RetrySchedule {
public:
    RetrySchedule(RetryPolicy policy, std::uint64_t seed);

    /// Grant the next attempt; false once the budget is spent.
    [[nodiscard]] bool next_attempt();

    /// Deterministic backoff preceding the attempt just granted.
    [[nodiscard]] Picoseconds backoff() const { return backoff_; }

    /// Attempts granted so far.
    [[nodiscard]] unsigned attempts() const { return attempt_; }

private:
    RetryPolicy policy_;
    std::uint64_t seed_;
    unsigned attempt_ = 0;
    Picoseconds backoff_{};
};

}  // namespace pv::resilience
