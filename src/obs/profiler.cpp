#include "obs/profiler.hpp"

#include "obs/metrics.hpp"

namespace mercury::obs {

ProfBucket* EngineProfiler::bucket(std::string_view name) {
  for (auto& b : buckets_)
    if (b->name == name) return b.get();
  buckets_.push_back(std::make_unique<ProfBucket>());
  buckets_.back()->name = std::string(name);
  return buckets_.back().get();
}

std::vector<ProfBucket> EngineProfiler::snapshot() const {
  std::vector<ProfBucket> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(*b);
  return out;
}

void EngineProfiler::reset() {
  for (auto& b : buckets_) {
    b->count = 0;
    b->wall_ns = 0;
    b->self_ns = 0;
    b->sim_cycles = 0;
  }
}

EngineProfiler& profiler() {
  static EngineProfiler p;
  return p;
}

std::string profile_json(const EngineProfiler& prof) {
  const std::vector<ProfBucket> buckets = prof.snapshot();
  std::uint64_t wall_total = 0, events_total = 0;
  for (const ProfBucket& b : buckets) {
    wall_total += b.self_ns;
    events_total += b.count;
  }
  std::string out = "{\"schema\":\"mercury.profile.v1\",\"enabled\":";
  out += prof.enabled() ? "true" : "false";
  out += ",\"wall_ns_total\":";
  append_json_number(out, static_cast<double>(wall_total));
  out += ",\"events_total\":";
  append_json_number(out, static_cast<double>(events_total));
  out += ",\"buckets\":[";
  bool first = true;
  for (const ProfBucket& b : buckets) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, b.name);
    out += ",\"count\":";
    append_json_number(out, static_cast<double>(b.count));
    out += ",\"wall_ns\":";
    append_json_number(out, static_cast<double>(b.wall_ns));
    out += ",\"self_ns\":";
    append_json_number(out, static_cast<double>(b.self_ns));
    out += ",\"sim_cycles\":";
    append_json_number(out, static_cast<double>(b.sim_cycles));
    out += ",\"wall_fraction\":";
    append_json_number(
        out, wall_total ? static_cast<double>(b.self_ns) /
                              static_cast<double>(wall_total)
                        : 0.0);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace mercury::obs
