// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark opens a span around each of its own calls into a
// layer's public functions and hooks; nothing inside src/ is
// instrumented.  A span records its name, host start/end (steady
// clock), the span that was open on the same thread when it began (its
// parent) and a request id shared by the spans of one job.  Spans are
// kept in memory and written out once, when the run ends.  A disabled
// recorder makes every scope a no-op, which is how untraced runs stay
// unperturbed.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pvbench {

/// Host nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns();

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< inherited from the parent when not given
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// RAII span; records itself into the tracer when it goes out of
    /// scope.  Parentage is per thread: the innermost scope open on the
    /// constructing thread is the parent.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string name, std::uint64_t request = 0);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_ = nullptr;  ///< null when tracing is off
        Span span_;
        std::uint64_t saved_current_ = 0;
        std::uint64_t saved_request_ = 0;
    };

    /// Record a finished span directly (for intervals that are not
    /// lexical scopes, such as the gap between two hook calls).
    void record(Span span);

    /// Spans closed so far, in closing order.
    [[nodiscard]] std::vector<Span> spans() const;

    /// Write every span as one JSON document.  Returns false on I/O
    /// failure.
    [[nodiscard]] bool write_json(const std::string& path) const;

private:
    const bool enabled_;
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Span> done_;
};

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval covered by its direct children
/// (children clipped to the parent, overlapping children counted once).
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Sum of durations / self times of the spans called `name`.
[[nodiscard]] std::int64_t total_ns(const std::vector<Span>& spans, const std::string& name);
[[nodiscard]] std::int64_t total_self_ns(const std::vector<Span>& spans,
                                         const std::string& name);

/// Durations of the spans called `name`, in closing order.
[[nodiscard]] std::vector<double> durations_ms(const std::vector<Span>& spans,
                                               const std::string& name);

}  // namespace pvbench
