// Host-time spans for the benchmark's traced run.
//
// The benchmark wraps every call it makes into a Mercury layer in a Span.
// Spans are kept in memory (name, layer, start, end, parent id) and written
// out when the run ends; a layer's self time is its spans' durations minus
// the parts covered by their child spans. Recording is off in the untraced
// run, where a Span costs one branch. Span times are thread CPU time, like
// every host metric of the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::string name;
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::uint32_t begin(const char* layer, std::string name);
  void end(std::uint32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Self time per layer (ms) over spans [from, spans().size()).
  std::map<std::string, double> self_ms_by_layer(std::size_t from = 0) const;
  /// Chrome trace-event JSON of every recorded span. False on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
};

Tracer& tracer();

/// RAII span around one call into `layer`. No-op unless tracing is enabled.
class Span {
 public:
  Span(const char* layer, std::string name)
      : id_(tracer().enabled() ? tracer().begin(layer, std::move(name)) : 0) {}
  ~Span() {
    if (id_ != 0) tracer().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

/// CPU time of the calling thread, in ns. The simulator is single-threaded,
/// so this is the host work of the simulation; unlike wall time it does not
/// count the time the thread waits for a CPU on a shared machine.
std::int64_t thread_cpu_ns();

/// Host stopwatch over thread CPU time (always on; the host metrics use it).
class Stopwatch {
 public:
  Stopwatch() : t0_(thread_cpu_ns()) {}
  double seconds() const {
    return static_cast<double>(thread_cpu_ns() - t0_) / 1e9;
  }
  double ms() const { return seconds() * 1e3; }

 private:
  std::int64_t t0_;
};

}  // namespace perfbench
