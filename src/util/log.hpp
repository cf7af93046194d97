// Minimal leveled logger. Quiet by default so benches stay clean; tests and
// examples can raise the level per-subsystem.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace mercury::util {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global log threshold; messages below it are dropped.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Per-subsystem override: a subsystem with an override ignores the global
/// threshold ("vmm" can trace while everything else stays at warn).
void set_log_level(std::string_view subsystem, LogLevel level);
void clear_log_level(std::string_view subsystem);
void clear_log_level_overrides();
/// Effective threshold for a subsystem (its override, else the global).
LogLevel log_level(std::string_view subsystem);
inline bool log_enabled(LogLevel level, std::string_view subsystem) {
  return level >= log_level(subsystem) && level != LogLevel::kOff;
}

/// Emission is interleave-safe: the line is formatted first and written
/// with a single fwrite, so concurrent emitters cannot shear each other's
/// lines.
void log_emit(LogLevel level, std::string_view subsystem, const std::string& msg);

/// Redirect emission (tests point this at a tmpfile); nullptr -> stderr.
void set_log_sink(std::FILE* sink);

/// The exact line log_emit writes, without emitting it (exposed for tests).
std::string format_log_line(LogLevel level, std::string_view subsystem,
                            const std::string& msg);

namespace detail {
inline void append(std::ostringstream&) {}
template <typename T, typename... Rest>
void append(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  append(os, rest...);
}
}  // namespace detail

/// Lazy formatting: arguments are only stringified when the level is enabled.
template <typename... Args>
void log(LogLevel level, std::string_view subsystem, const Args&... args) {
  if (!log_enabled(level, subsystem)) return;
  std::ostringstream os;
  detail::append(os, args...);
  log_emit(level, subsystem, os.str());
}

template <typename... Args>
void log_debug(std::string_view sub, const Args&... a) {
  log(LogLevel::kDebug, sub, a...);
}
template <typename... Args>
void log_info(std::string_view sub, const Args&... a) {
  log(LogLevel::kInfo, sub, a...);
}
template <typename... Args>
void log_warn(std::string_view sub, const Args&... a) {
  log(LogLevel::kWarn, sub, a...);
}

}  // namespace mercury::util
