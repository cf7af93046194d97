#include "spans.hpp"

#include <time.h>

#include <fstream>

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint32_t Tracer::begin(const char* layer, std::string name) {
  SpanRecord s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = std::move(name);
  s.layer = layer;
  s.start_ns = thread_cpu_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].end_ns = thread_cpu_ns();
  // Spans are RAII-scoped, so the one ending is always the innermost.
  stack_.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_layer(std::size_t from) const {
  std::map<std::string, double> self;
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent > from) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    self[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id]) / 1e6;
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"cat\": \""
        << s.layer << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
