#include "obs/postmortem.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#if defined(__unix__)
#include <unistd.h>
#endif

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mercury::obs {

namespace {

// Rotating slot pool: the black box bounds its disk footprint the same way
// the flight ring bounds memory. 32 slots comfortably covers a fault-matrix
// sweep's "did THIS trial dump?" window while capping a fuzzer's output.
constexpr std::uint64_t kPostmortemSlots = 32;

std::string& dir_storage() {
  static std::string dir;
  return dir;
}

std::string& last_path_storage() {
  static std::string path;
  return path;
}

std::uint64_t& count_storage() {
  static std::uint64_t count = 0;
  return count;
}

std::uint64_t process_id() {
#if defined(__unix__)
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

// The pid keeps processes sharing a directory (ctest -j runs each test case
// as its own process) out of each other's slots.
std::string slot_file_name(std::uint64_t slot) {
  return "mercury-postmortem-" + std::to_string(process_id()) + "-" +
         std::to_string(slot) + ".json";
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void set_postmortem_dir(const std::string& dir) { dir_storage() = dir; }

std::string postmortem_dir() {
  if (!dir_storage().empty()) return dir_storage();
  if (const char* env = std::getenv("MERCURY_POSTMORTEM_DIR");
      env != nullptr && env[0] != '\0')
    return env;
  return ".";
}

void default_postmortem_dir_beside_binary() {
  if (!dir_storage().empty()) return;
  if (const char* env = std::getenv("MERCURY_POSTMORTEM_DIR");
      env != nullptr && env[0] != '\0')
    return;
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return;
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return;
  dir_storage() = path.substr(0, slash);
#endif
}

std::string last_postmortem_path() { return last_path_storage(); }

void remove_own_postmortems() {
  const std::uint64_t used = std::min(count_storage(), kPostmortemSlots);
  for (std::uint64_t slot = 0; slot < used; ++slot)
    std::remove((postmortem_dir() + "/" + slot_file_name(slot)).c_str());
}

std::uint64_t postmortem_count() { return count_storage(); }

std::string postmortem_json(const PostmortemContext& ctx,
                            std::size_t flight_tail) {
  const FlightRecorder& rec = flight_recorder();
  std::string out = "{\"schema\":\"mercury.postmortem.v1\",\"reason\":";
  append_escaped(out, ctx.reason);
  out += ",\"detail\":";
  append_escaped(out, ctx.detail);
  out += ",\"switch\":{\"from\":";
  append_escaped(out, ctx.switch_from ? ctx.switch_from : "");
  out += ",\"target\":";
  append_escaped(out, ctx.switch_target ? ctx.switch_target : "");
  out += '}';
  if (ctx.has_fault) {
    out += ",\"fault\":{\"site\":";
    append_escaped(out, ctx.fault_site ? ctx.fault_site : "");
    out += ",\"kind\":";
    append_escaped(out, ctx.fault_kind ? ctx.fault_kind : "");
    out += ",\"cpu\":";
    out += std::to_string(ctx.fault_cpu);
    out += '}';
  }
  out += ",\"active_refs\":";
  out += std::to_string(ctx.active_refs);
  out += ",\"cpu_clocks\":[";
  bool first = true;
  for (const auto& [cpu, cycles] : ctx.cpu_clocks) {
    if (!first) out += ',';
    first = false;
    out += "{\"cpu\":";
    out += std::to_string(cpu);
    out += ",\"cycles\":";
    out += std::to_string(cycles);
    out += '}';
  }
  out += "],\"flight\":{\"recorded\":";
  out += std::to_string(rec.recorded());
  out += ",\"dropped\":";
  out += std::to_string(rec.dropped());
  out += ",\"events\":";
  out += flight_events_json(rec.tail(flight_tail));
  out += "},\"metrics\":";
  out += to_json(snapshot());
  out += ",\"extra\":[";
  first = true;
  for (const auto& [name, value] : ctx.extra) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_escaped(out, name);
    out += ",\"value\":";
    out += std::to_string(value);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string write_postmortem(const PostmortemContext& ctx,
                             std::size_t flight_tail) {
  const std::string json = postmortem_json(ctx, flight_tail);
  const std::uint64_t slot = count_storage() % kPostmortemSlots;
  // The bundle is written under a dot-prefixed temp name that the
  // mercury-postmortem-*.json glob does not match and renamed into place,
  // so a reader never sees a partial file.
  const std::string name = slot_file_name(slot);
  const std::string path = postmortem_dir() + "/" + name;
  const std::string tmp = postmortem_dir() + "/." + name + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    util::log_warn("postmortem", "cannot open ", tmp, " for writing");
    return "";
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !ok) {
    util::log_warn("postmortem", "short write to ", tmp);
    std::remove(tmp.c_str());
    return "";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    util::log_warn("postmortem", "cannot rename ", tmp, " to ", path);
    std::remove(tmp.c_str());
    return "";
  }
  ++count_storage();
  last_path_storage() = path;
  MERC_COUNT("postmortem.bundles");
  util::log_warn("postmortem", "wrote ", path, " (", ctx.reason, ")");
  return path;
}

namespace {

void assert_failure_hook(const char* expr, const char* file, int line,
                         const std::string& msg) {
  // A MERC_CHECK failing while we serialize the dump must not recurse into
  // a second dump of a dump.
  static thread_local bool in_hook = false;
  if (in_hook) return;
  in_hook = true;
#if MERCURY_OBS_ENABLED
  flight_recorder().record(0, FlightType::kAssertFail, expr, 0,
                           static_cast<std::uint64_t>(line));
#endif
  PostmortemContext ctx;
  ctx.reason = "assert";
  ctx.detail = std::string(expr) + " at " + file + ":" + std::to_string(line);
  if (!msg.empty()) ctx.detail += " — " + msg;
  write_postmortem(ctx);
  in_hook = false;
}

}  // namespace

void install_assert_postmortem_hook() {
  util::set_invariant_failure_hook(&assert_failure_hook);
}

}  // namespace mercury::obs
