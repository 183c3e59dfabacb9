#include "util/log.hpp"

#include <atomic>
#include <iostream>

#include "util/mutex.hpp"

namespace pv {
namespace {

// The level is read on every log call from every characterization
// worker while tests/benches may set it from the main thread: a plain
// LogLevel here is a data race (caught by TSan).  Relaxed atomics are
// enough — the level is a filter, not a synchronization point.
std::atomic<LogLevel> g_level{LogLevel::Warn};
// pv-lint: allow(concurrency-guard) guards std::cerr, an external stream
// with no annotatable field; MutexLock in log_line is the whole protocol
Mutex g_sink_mutex;  // serializes emission: workers log concurrently

const char* level_tag(LogLevel level) {
    switch (level) {
        case LogLevel::Debug: return "DEBUG";
        case LogLevel::Info: return "INFO ";
        case LogLevel::Warn: return "WARN ";
        case LogLevel::Error: return "ERROR";
        case LogLevel::Off: return "OFF  ";
    }
    return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_line(LogLevel level, const std::string& message) {
    if (level < log_level()) return;
    const MutexLock lock(g_sink_mutex);
    std::cerr << "[pv " << level_tag(level) << "] " << message << '\n';
}

}  // namespace pv
