// PlugVolt — discrete-event scheduling core.
//
// The whole machine model is a single-threaded discrete-event simulation:
// voltage ramps are evaluated lazily, but kernel-thread wakeups, regulator
// completion callbacks and watchdog timers are events.  Determinism is a
// hard requirement (ties broken by insertion order).
//
// Layout: a struct-of-arrays binary min-heap over (when, seq), with the
// callbacks parked in a slot arena beside it.  Sift operations move three
// POD words per swap instead of a std::function; dispatched and cleared
// slots go onto a free list, so clear() + steady-state scheduling never
// allocates — Machine::reset() recycles the whole structure (arena slots
// and heap arrays keep their capacity) across thousands of sweep cells.
//
// Reentrancy contract
// -------------------
// A callback MAY call schedule() on the queue dispatching it (periodic
// kthreads re-arm themselves this way).  run_until() MOVES the callback
// out of its arena slot and removes the heap entry BEFORE invoking it,
// so the dispatching entry is never touched again — even if the new
// event reuses the just-freed slot or grows the arena.  A callback MUST
// NOT call run_until() or clear() reentrantly on the same queue.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pv::sim {

/// Time-ordered callback queue.  Events scheduled for the same timestamp
/// fire in insertion order.
class EventQueue {
public:
    using Callback = std::function<void()>;

    /// Dispatch counters (NOT part of any state fingerprint: they count
    /// traversal work, not architectural history).
    struct Stats {
        std::uint64_t scheduled = 0;   ///< schedule() calls since reset_stats()
        std::uint64_t dispatched = 0;  ///< callbacks run since reset_stats()
        std::uint64_t heap_peak = 0;   ///< pending-event high-water mark
    };

    /// Schedule `fn` to run at absolute time `when`; `when` must not be
    /// before the last popped time (no scheduling into the past).
    void schedule(Picoseconds when, Callback fn);

    /// True if no events remain.
    [[nodiscard]] bool empty() const { return when_.empty(); }

    /// Timestamp of the next event; only valid when !empty().
    [[nodiscard]] Picoseconds next_time() const {
        if (when_.empty()) throw SimError("next_time on empty queue");
        return Picoseconds{when_[0]};
    }

    /// Pop and run every event with timestamp <= `until`, advancing the
    /// internal clock.  Events scheduled by callbacks are honoured if
    /// they also fall within `until`.  Returns the number of events run.
    std::size_t run_until(Picoseconds until);

    /// The timestamp of the most recently executed event (or zero).
    [[nodiscard]] Picoseconds last_dispatched() const { return last_; }

    /// Drop all pending events (machine reboot after a crash).  Keeps
    /// every allocation: the heap arrays and the callback arena retain
    /// their capacity for the next boot cycle.
    void clear();

    /// clear(), plus rewind the scheduling-into-the-past watermark to
    /// zero.  For Machine::reset(), which rewinds the virtual clock —
    /// reboot() keeps the clock monotonic and uses clear().
    void rewind();

    [[nodiscard]] const Stats& stats() const { return stats_; }
    void reset_stats() { stats_ = Stats{}; }

private:
    [[nodiscard]] bool before(std::size_t a, std::size_t b) const;
    void swap_entries(std::size_t a, std::size_t b);
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);
    [[nodiscard]] std::uint32_t acquire_slot(Callback&& fn);
    void release_slot(std::uint32_t slot);

    // Struct-of-arrays heap: entry i is (when_[i], seq_[i]) with its
    // callback in arena_[slot_[i]].
    std::vector<std::int64_t> when_;
    std::vector<std::uint64_t> seq_;
    std::vector<std::uint32_t> slot_;
    std::vector<Callback> arena_;
    std::vector<std::uint32_t> free_;  // recycled arena slot indices
    std::uint64_t next_seq_ = 0;
    Picoseconds last_{};
    Stats stats_{};
};

}  // namespace pv::sim
