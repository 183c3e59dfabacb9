// PlugVolt — deterministic trace recording.
//
// A TraceRecorder is one TRACK of events: a bounded ring buffer written
// by exactly one thread at a time (the thread the track is bound to via
// ScopedRecorder).  Tracks are identified by a caller-chosen logical id
// (a campaign cell index, a bench trial number) — never by an OS thread
// id — so the exported trace is independent of which pool worker
// happened to execute the work.  A TraceSession owns many tracks and
// serializes their creation; export walks tracks in id order, which is
// what makes a sharded run's trace byte-identical to the serial run's.
//
// Instrumentation reaches the recorder through a thread-local binding
// (current_recorder()): simulator layers emit unconditionally cheap
// "is anything bound?" checks and never know who is listening.  The
// PV_TRACE_* macros in trace/trace.hpp compile those checks away
// entirely at PV_TRACE_LEVEL=0.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace pv::trace {

/// One track of events.  NOT thread-safe: a recorder must only ever be
/// written by the thread it is currently bound to (ScopedRecorder), the
/// same single-writer discipline the simulator itself lives by.
class TraceRecorder {
public:
    /// `capacity` bounds the ring: once full, the OLDEST events are
    /// overwritten (the tail of a long run is the interesting part) and
    /// dropped_events() counts the overwritten ones.
    TraceRecorder(std::string track_name, std::uint64_t track_id,
                  std::size_t capacity = kDefaultCapacity);

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /// Append one event.  `name` must outlive the recorder (a string
    /// literal).
    void record(EventKind kind, const char* name, std::int64_t ts_ps, std::uint64_t a = 0,
                std::uint64_t b = 0) {
        Event e{ts_ps, a, b, name, kind};
        if (ring_.size() < capacity_) {
            ring_.push_back(e);
        } else {
            ring_[next_] = e;
            next_ = (next_ + 1) % capacity_;
        }
        ++recorded_;
    }

    [[nodiscard]] const std::string& track_name() const { return name_; }
    [[nodiscard]] std::uint64_t track_id() const { return id_; }
    [[nodiscard]] std::size_t size() const { return ring_.size(); }
    [[nodiscard]] std::uint64_t recorded_events() const { return recorded_; }
    [[nodiscard]] std::uint64_t dropped_events() const { return recorded_ - ring_.size(); }

    /// Events oldest-first (unwraps the ring).
    [[nodiscard]] std::vector<Event> events() const;

    static constexpr std::size_t kDefaultCapacity = 1 << 14;

private:
    std::string name_;
    std::uint64_t id_;
    std::size_t capacity_;
    std::vector<Event> ring_;
    std::size_t next_ = 0;         // overwrite cursor once the ring is full
    std::uint64_t recorded_ = 0;
};

namespace detail {
/// The calling thread's recorder binding, as a function-local TLS slot.
/// A namespace-scope `extern thread_local` is reached through a weak
/// compiler-generated wrapper (the variable may need dynamic init in
/// another TU), which UBSan flags as a null-pointer load when the init
/// symbol resolves weak-null.  A function-local thread_local with
/// constant init has no wrapper and no guard: inlined, this is a plain
/// TLS load — same cost as the raw variable, sanitizer-clean.
[[nodiscard]] inline TraceRecorder*& tl_recorder_slot() noexcept {
    thread_local TraceRecorder* slot = nullptr;
    return slot;
}
}  // namespace detail

/// The recorder bound to the calling thread, or nullptr (tracing off).
[[nodiscard]] inline TraceRecorder* current_recorder() {
    return detail::tl_recorder_slot();
}

/// Bind a recorder to the calling thread for a scope.  Binding nullptr
/// is a no-op passthrough (the outer binding, if any, stays active), so
/// callers can write `ScopedRecorder bind(maybe_null)` unconditionally.
class ScopedRecorder {
public:
    explicit ScopedRecorder(TraceRecorder* recorder)
        : previous_(detail::tl_recorder_slot()), bound_(recorder != nullptr) {
        if (bound_) detail::tl_recorder_slot() = recorder;
    }
    ~ScopedRecorder() {
        if (bound_) detail::tl_recorder_slot() = previous_;
    }

    ScopedRecorder(const ScopedRecorder&) = delete;
    ScopedRecorder& operator=(const ScopedRecorder&) = delete;

private:
    TraceRecorder* previous_;
    bool bound_;
};

/// RAII span: emits SpanBegin at construction and SpanEnd at scope exit,
/// both stamped from `clock.now()` (any type with a now() returning a
/// value with .value(), i.e. Picoseconds — duck-typed so this header
/// needs no dependency on the simulator).
template <typename Clock>
class ScopedSpan {
public:
    ScopedSpan(const char* name, const Clock& clock, std::uint64_t a = 0, std::uint64_t b = 0)
        : clock_(clock), name_(name) {
        if (TraceRecorder* r = current_recorder())
            r->record(EventKind::SpanBegin, name_, clock_.now().value(), a, b);
    }
    ~ScopedSpan() {
        if (TraceRecorder* r = current_recorder())
            r->record(EventKind::SpanEnd, name_, clock_.now().value());
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    const Clock& clock_;
    const char* name_;
};

/// A set of tracks with thread-safe creation (workers open their own
/// tracks) and deterministic export (tracks sorted by id, events in
/// recording order).  Exporters live in trace/export.cpp.
class TraceSession {
public:
    explicit TraceSession(std::size_t track_capacity = TraceRecorder::kDefaultCapacity)
        : track_capacity_(track_capacity) {}

    /// Create a new track.  Thread-safe; the returned recorder must then
    /// only be written by one thread at a time (bind it).
    TraceRecorder& create_track(std::string name, std::uint64_t track_id)
        PV_EXCLUDES(mutex_);

    /// Tracks sorted by (id, name, creation order).  Call only after
    /// every writer is done (export time).
    [[nodiscard]] std::vector<const TraceRecorder*> tracks() const PV_EXCLUDES(mutex_);

    [[nodiscard]] std::size_t track_count() const PV_EXCLUDES(mutex_);
    /// Sum of recorded (not dropped) events across tracks.
    [[nodiscard]] std::uint64_t event_count() const PV_EXCLUDES(mutex_);

    /// Chrome trace-event JSON (chrome://tracing, Perfetto).  Byte-
    /// deterministic for identical sessions.
    [[nodiscard]] std::string to_chrome_json() const;
    /// Compact CSV: track_id,track_name,seq,ts_ps,kind,name,a,b.
    [[nodiscard]] std::string to_csv() const;

    /// Write to `path`, overwriting.  Returns the path.
    std::string write_chrome_json(const std::string& path) const;
    std::string write_csv(const std::string& path) const;

private:
    std::size_t track_capacity_;
    mutable Mutex mutex_;
    std::vector<std::unique_ptr<TraceRecorder>> tracks_ PV_GUARDED_BY(mutex_);
};

}  // namespace pv::trace
