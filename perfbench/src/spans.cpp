#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

namespace pvbench {

namespace {

thread_local std::uint64_t tls_current = 0;
thread_local std::uint64_t tls_request = 0;

}  // namespace

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t request) {
    if (!tracer.enabled()) return;
    tracer_ = &tracer;
    span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
    span_.parent = tls_current;
    span_.request = request != 0 ? request : tls_request;
    span_.name = std::move(name);
    saved_current_ = tls_current;
    saved_request_ = tls_request;
    tls_current = span_.id;
    tls_request = span_.request;
    span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
    if (tracer_ == nullptr) return;
    span_.end_ns = now_ns();
    tls_current = saved_current_;
    tls_request = saved_request_;
    tracer_->record(std::move(span_));
}

void Tracer::record(Span span) {
    if (!enabled_) return;
    if (span.id == 0) span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mutex_);
    done_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

bool Tracer::write_json(const std::string& path) const {
    const std::vector<Span> all = spans();
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"spans\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        std::fprintf(out,
                     "  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                     "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.name.c_str(),
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0) children[spans[i].parent].push_back(i);

    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& parent = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        if (const auto it = children.find(parent.id); it != children.end()) {
            for (const std::size_t c : it->second) {
                const std::int64_t lo = std::max(spans[c].start_ns, parent.start_ns);
                const std::int64_t hi = std::min(spans[c].end_ns, parent.end_ns);
                if (hi > lo) cover.emplace_back(lo, hi);
            }
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = parent.start_ns;
        for (const auto& [lo, hi] : cover) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) covered += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = parent.duration_ns() - covered;
    }
    return self;
}

std::int64_t total_ns(const std::vector<Span>& spans, const std::string& name) {
    std::int64_t sum = 0;
    for (const Span& s : spans)
        if (s.name == name) sum += s.duration_ns();
    return sum;
}

std::int64_t total_self_ns(const std::vector<Span>& spans, const std::string& name) {
    const std::vector<std::int64_t> self = self_times(spans);
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name) sum += self[i];
    return sum;
}

std::vector<double> durations_ms(const std::vector<Span>& spans, const std::string& name) {
    std::vector<double> out;
    for (const Span& s : spans)
        if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()) / 1e6);
    return out;
}

}  // namespace pvbench
