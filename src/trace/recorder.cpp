#include "trace/recorder.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pv::trace {

const char* kind_name(EventKind kind) {
    switch (kind) {
        case EventKind::MsrRead: return "msr-read";
        case EventKind::MsrWrite: return "msr-write";
        case EventKind::OcmTransaction: return "ocm-transaction";
        case EventKind::FaultInjected: return "fault-injected";
        case EventKind::PollIteration: return "poll-iteration";
        case EventKind::SafeStateRewrite: return "safe-state-rewrite";
        case EventKind::FreqClamp: return "freq-clamp";
        case EventKind::CampaignCellBegin: return "campaign-cell-begin";
        case EventKind::CampaignCellEnd: return "campaign-cell-end";
        case EventKind::SpanBegin: return "span-begin";
        case EventKind::SpanEnd: return "span-end";
        case EventKind::Instant: return "instant";
        case EventKind::EnvFaultInjected: return "env-fault";
        case EventKind::RetryBackoff: return "retry-backoff";
        case EventKind::JournalCommit: return "journal-commit";
        case EventKind::ProbeSelected: return "probe-selected";
        case EventKind::PosteriorUpdate: return "posterior-update";
    }
    return "?";
}

TraceRecorder::TraceRecorder(std::string track_name, std::uint64_t track_id,
                             std::size_t capacity)
    : name_(std::move(track_name)), id_(track_id), capacity_(capacity) {
    if (capacity_ == 0) throw ConfigError("trace track capacity must be positive");
    ring_.reserve(std::min<std::size_t>(capacity_, 1024));  // grow lazily up to capacity
}

std::vector<Event> TraceRecorder::events() const {
    std::vector<Event> out;
    out.reserve(ring_.size());
    if (ring_.size() < capacity_) {
        out = ring_;  // never wrapped: already oldest-first
    } else {
        out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
        out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
    }
    return out;
}

TraceRecorder& TraceSession::create_track(std::string name, std::uint64_t track_id) {
    MutexLock lock(mutex_);
    tracks_.push_back(
        std::make_unique<TraceRecorder>(std::move(name), track_id, track_capacity_));
    return *tracks_.back();
}

std::vector<const TraceRecorder*> TraceSession::tracks() const {
    std::vector<const TraceRecorder*> out;
    {
        MutexLock lock(mutex_);
        out.reserve(tracks_.size());
        for (const auto& t : tracks_) out.push_back(t.get());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecorder* a, const TraceRecorder* b) {
                         if (a->track_id() != b->track_id())
                             return a->track_id() < b->track_id();
                         return a->track_name() < b->track_name();
                     });
    return out;
}

std::size_t TraceSession::track_count() const {
    MutexLock lock(mutex_);
    return tracks_.size();
}

std::uint64_t TraceSession::event_count() const {
    MutexLock lock(mutex_);
    std::uint64_t n = 0;
    for (const auto& t : tracks_) n += t->size();
    return n;
}

}  // namespace pv::trace
