// PlugVolt — registry of component-registered runtime invariants.
//
// Components register named predicates ("rail within physical range",
// "core frequency inside the profile table") and the owner — Machine,
// for the simulator — evaluates the whole set at a configurable cadence
// from its event loop.  The registry is deliberately passive: it never
// samples state on its own, so a disabled registry (cadence 0) costs one
// integer increment and compare per tick.
//
// Violations are fatal by default (a broken simulator invariant means
// every result after it is garbage — the PV_ASSERT philosophy); tests
// flip set_fatal(false) and inspect violations() instead.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pv::check {

/// One failed invariant evaluation.
struct InvariantViolation {
    std::string name;  ///< registered name of the invariant
    std::string why;   ///< predicate-supplied diagnosis
};

class InvariantRegistry {
public:
    /// Returns true when the invariant holds; on failure fill `why` with
    /// the diagnosis.  Predicates must be read-only observers — they run
    /// inside the simulator's event loop and must not perturb its state
    /// (determinism contract).
    using Predicate = std::function<bool(std::string& why)>;

    /// Register a predicate; returns a token for remove().
    std::size_t add(std::string name, Predicate predicate);
    void remove(std::size_t token);

    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /// Evaluate every Nth tick() call (every tick whose running count is
    /// a multiple of N); 0 disables tick-driven evaluation entirely
    /// (check_now() still works).
    void set_cadence(std::uint64_t every_n) {
        cadence_ = every_n;
        next_eval_ = every_n == 0 ? UINT64_MAX : (ticks_ / every_n + 1) * every_n;
    }
    [[nodiscard]] std::uint64_t cadence() const { return cadence_; }

    /// Cadence-gated evaluation hook (call from the owner's hot loop).
    /// Returns the number of violations found by this call (0 when the
    /// cadence skipped evaluation).
    std::size_t tick() {
        if (++ticks_ != next_eval_) return 0;
        next_eval_ += cadence_;
        return check_now();
    }

    /// How many tick() calls from now evaluate nothing (the next one
    /// after them does), and those ticks taken at once: a hot loop that
    /// counts its ticks in a local stores them with skip_ticks(n) for
    /// n <= quiet_ticks(), and calls tick() for the evaluating one.
    [[nodiscard]] std::uint64_t quiet_ticks() const { return next_eval_ - ticks_ - 1; }
    void skip_ticks(std::uint64_t n) { ticks_ += n; }

    /// Evaluate all invariants immediately, regardless of cadence.
    /// Fatal mode PV_ASSERT-fails on the first violation; otherwise
    /// violations are appended to violations().
    std::size_t check_now();

    /// When fatal (default), a violation aborts via the PV_ASSERT
    /// failure path; when not, it is recorded and execution continues.
    void set_fatal(bool fatal) { fatal_ = fatal; }
    [[nodiscard]] bool fatal() const { return fatal_; }

    [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
        return violations_;
    }
    void clear_violations() { violations_.clear(); }

    /// Counters for cadence tests: total tick() calls and how many of
    /// them (plus check_now() calls) ran a full evaluation.
    [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
    [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }

private:
    struct Entry {
        std::size_t token;
        std::string name;
        Predicate predicate;
    };

    std::vector<Entry> entries_;
    std::vector<InvariantViolation> violations_;
    std::size_t next_token_ = 0;
    std::uint64_t cadence_ = 0;
    std::uint64_t ticks_ = 0;
    // The tick count of the next cadence evaluation: the next multiple of
    // cadence_ above ticks_, or UINT64_MAX (never reached) at cadence 0.
    std::uint64_t next_eval_ = UINT64_MAX;
    std::uint64_t evaluations_ = 0;
    bool fatal_ = true;
};

}  // namespace pv::check
