#include "sim/event_queue.hpp"

#include <utility>

#include "util/error.hpp"

namespace pv::sim {

bool EventQueue::before(std::size_t a, std::size_t b) const {
    if (when_[a] != when_[b]) return when_[a] < when_[b];
    return seq_[a] < seq_[b];
}

void EventQueue::swap_entries(std::size_t a, std::size_t b) {
    std::swap(when_[a], when_[b]);
    std::swap(seq_[a], seq_[b]);
    std::swap(slot_[a], slot_[b]);
}

void EventQueue::sift_up(std::size_t i) {
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(i, parent)) return;
        swap_entries(i, parent);
        i = parent;
    }
}

void EventQueue::sift_down(std::size_t i) {
    const std::size_t n = when_.size();
    for (;;) {
        std::size_t smallest = i;
        const std::size_t left = 2 * i + 1;
        const std::size_t right = 2 * i + 2;
        if (left < n && before(left, smallest)) smallest = left;
        if (right < n && before(right, smallest)) smallest = right;
        if (smallest == i) return;
        swap_entries(i, smallest);
        i = smallest;
    }
}

std::uint32_t EventQueue::acquire_slot(Callback&& fn) {
    if (!free_.empty()) {
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        arena_[slot] = std::move(fn);
        return slot;
    }
    arena_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(arena_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
    arena_[slot] = nullptr;  // drop captured state eagerly
    free_.push_back(slot);
}

void EventQueue::schedule(Picoseconds when, Callback fn) {
    if (when < last_) throw SimError("event scheduled into the past");
    const std::uint32_t slot = acquire_slot(std::move(fn));
    when_.push_back(when.value());
    seq_.push_back(next_seq_++);
    slot_.push_back(slot);
    sift_up(when_.size() - 1);
    ++stats_.scheduled;
    if (when_.size() > stats_.heap_peak) stats_.heap_peak = when_.size();
}

std::size_t EventQueue::run_until(Picoseconds until) {
    std::size_t count = 0;
    while (!when_.empty() && when_[0] <= until.value()) {
        // Pop via move: detach the root's callback and free its slot,
        // then remove the heap entry, all BEFORE invoking — this is what
        // lets the callback schedule() freely (see header contract).
        const Picoseconds when{when_[0]};
        const std::uint32_t slot = slot_[0];
        Callback fn = std::move(arena_[slot]);
        release_slot(slot);
        swap_entries(0, when_.size() - 1);
        when_.pop_back();
        seq_.pop_back();
        slot_.pop_back();
        if (!when_.empty()) sift_down(0);
        last_ = when;
        fn();
        ++count;
        ++stats_.dispatched;
    }
    if (last_ < until) last_ = until;
    return count;
}

void EventQueue::clear() {
    for (const std::uint32_t slot : slot_) release_slot(slot);
    when_.clear();
    seq_.clear();
    slot_.clear();
}

void EventQueue::rewind() {
    clear();
    last_ = Picoseconds{};
}

}  // namespace pv::sim
