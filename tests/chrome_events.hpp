// Reads back the events of a Chrome trace written by obs::chrome_trace_json,
// relying on its fixed layout, so tests check the export itself rather than
// the flight ring it views.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace mercury::testing {

struct ChromeEvent {
  std::string name, cat, ph;
  double ts = 0, dur = 0;  // simulated microseconds
  std::uint64_t pid = 0, tid = 0;
  std::uint64_t seq = 0, trace = 0, span = 0, parent = 0;  // "args"
};

/// Every event of `json`, in export order. A missing number reads as 0.
inline std::vector<ChromeEvent> chrome_events(const std::string& json) {
  std::vector<ChromeEvent> out;
  const std::string open = "{\"name\":";
  for (std::size_t at = json.find(open); at != std::string::npos;
       at = json.find(open, at + 1)) {
    const std::string ev = json.substr(at, json.find("}}", at) - at);
    const auto text = [&ev](const char* key) {  // unescapes '"' and '\\'
      std::string out;
      std::size_t i = ev.find(std::string("\"") + key + "\":\"");
      if (i == std::string::npos) return out;
      for (i += std::char_traits<char>::length(key) + 4;
           i < ev.size() && ev[i] != '"'; ++i)
        out += ev[i] == '\\' ? ev[++i] : ev[i];
      return out;
    };
    const auto num = [&ev](const char* key) {
      const std::size_t i = ev.find(std::string("\"") + key + "\":");
      return i == std::string::npos
                 ? 0.0
                 : std::strtod(ev.c_str() + i +
                                   std::char_traits<char>::length(key) + 3,
                               nullptr);
    };
    const auto id = [&num](const char* key) {
      return static_cast<std::uint64_t>(num(key));
    };
    out.push_back({text("name"), text("cat"), text("ph"), num("ts"),
                   num("dur"), id("pid"), id("tid"), id("seq"), id("trace"),
                   id("span"), id("parent")});
  }
  return out;
}

}  // namespace mercury::testing
