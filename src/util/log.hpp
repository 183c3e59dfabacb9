// PlugVolt — leveled logging.
//
// A single process-wide sink with a runtime level.  Benches set Level::
// Info for progress lines; tests leave the default (Warn) so output stays
// quiet.  Each simulator instance remains single-threaded (that is part
// of its determinism contract), but the sharded characterization engine
// runs many instances at once, so the sink serializes emission; the
// level itself is set once at startup, before any workers exist.
#pragma once

#include <sstream>
#include <string>

namespace pv {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Set the process-wide minimum level that will be emitted.
void set_log_level(LogLevel level);

/// Current process-wide level.
[[nodiscard]] LogLevel log_level();

/// Emit one line at `level` if it passes the filter.
void log_line(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
void log_fmt(LogLevel level, const Args&... args) {
    if (level < log_level()) return;
    std::ostringstream os;
    (os << ... << args);
    log_line(level, os.str());
}
}  // namespace detail

template <typename... Args>
void log_debug(const Args&... args) { detail::log_fmt(LogLevel::Debug, args...); }
template <typename... Args>
void log_info(const Args&... args) { detail::log_fmt(LogLevel::Info, args...); }
template <typename... Args>
void log_warn(const Args&... args) { detail::log_fmt(LogLevel::Warn, args...); }
template <typename... Args>
void log_error(const Args&... args) { detail::log_fmt(LogLevel::Error, args...); }

}  // namespace pv
