// Central metrics registry (telemetry pillar 1).
//
// Named, optionally labeled instruments — counters, gauges, cycle
// histograms, and callback gauges that view externally owned state — with a
// process-global registry, snapshotting, and a JSON serializer so benches
// can emit machine-readable phase breakdowns (paper §6/§7 tables).
//
// Threading: the simulator is a single-threaded discrete-event machine, so
// instrument updates are plain stores ("lock-free-ish": single-writer by
// construction). Registration and snapshotting take a mutex so a harness
// thread can snapshot while instruments mutate.
//
// Cost model: updating an owned instrument through a cached reference is an
// inlined integer add. With MERCURY_OBS_ENABLED=0 the instrumentation
// macros in obs/obs.hpp compile away entirely; this header stays valid so
// non-macro users (tests, benches) still link.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace mercury::obs {

/// Monotonic event count. Single-writer; reads are exact between events.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-value instrument (levels: downtime, queue depth, mode, ...).
class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return v_; }
  void reset() { v_ = 0.0; }

 private:
  double v_ = 0.0;
};

/// Distribution instrument: log2-bucketed quantiles plus exact running
/// moments, built on util::Histogram / util::RunningStats.
class Hist {
 public:
  void record(std::uint64_t v) {
    h_.add(v);
    s_.add(static_cast<double>(v));
  }
  std::uint64_t count() const { return h_.count(); }
  std::uint64_t quantile(double q) const { return h_.quantile(q); }
  const util::Histogram& histogram() const { return h_; }
  const util::RunningStats& stats() const { return s_; }
  void reset() {
    h_ = util::Histogram{};
    s_.reset();
  }

 private:
  util::Histogram h_;
  util::RunningStats s_;
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHist, kCallback };

const char* instrument_kind_name(InstrumentKind k);

/// Flattened point-in-time view of one instrument.
struct InstrumentSample {
  std::string name;
  std::string label;  // empty for global instruments
  InstrumentKind kind = InstrumentKind::kCounter;
  double value = 0.0;       // counters (exact), gauges, callbacks
  // Histogram fields (kind == kHist only):
  std::uint64_t count = 0;
  double sum = 0.0, min = 0.0, mean = 0.0, max = 0.0;
  std::uint64_t p50 = 0, p90 = 0, p99 = 0;
};

struct Snapshot {
  std::vector<InstrumentSample> samples;

  /// First sample matching name (+label if given); nullptr when absent.
  const InstrumentSample* find(std::string_view name,
                               std::string_view label = {}) const;
};

/// Get-or-create registry of named instruments. References returned stay
/// valid for the registry's lifetime (values may be reset, instruments are
/// never destroyed), so call sites may cache them in static locals.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, std::string_view label = {});
  Gauge& gauge(std::string_view name, std::string_view label = {});
  Hist& histogram(std::string_view name, std::string_view label = {});

  /// Register a read-on-snapshot gauge viewing externally owned state
  /// (e.g. a SwitchStats field). Returns an id for unregister_callback;
  /// the callback must stay valid until then.
  std::uint64_t register_callback(std::string_view name, std::string_view label,
                                  std::function<double()> fn);
  void unregister_callback(std::uint64_t id);

  Snapshot snapshot() const;
  /// Zero every owned instrument (callbacks are untouched). Instruments are
  /// never removed, so cached references stay valid.
  void reset_values();
  std::size_t size() const;

 private:
  struct Owned {
    std::string name, label;
    InstrumentKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Hist> hist;
  };
  struct Callback {
    std::uint64_t id;
    std::string name, label;
    std::function<double()> fn;
  };

  Owned& get_or_create(std::string_view name, std::string_view label,
                       InstrumentKind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Owned>> owned_;  // stable addresses
  std::vector<Callback> callbacks_;
  std::uint64_t next_cb_id_ = 1;
};

/// The process-global registry every instrumentation macro records into.
MetricsRegistry& registry();

/// Snapshot of the global registry.
Snapshot snapshot();

/// A label-bound view of a registry: every instrument created through it
/// carries a fixed label (e.g. "node=alpha"), giving each cluster::Node its
/// own metric namespace inside the shared registry while fleet-level
/// aggregation just sums samples that share a name across labels.
class ScopedMetrics {
 public:
  ScopedMetrics() : reg_(&registry()) {}
  explicit ScopedMetrics(std::string label, MetricsRegistry* reg = nullptr)
      : reg_(reg ? reg : &registry()), label_(std::move(label)) {}

  Counter& counter(std::string_view name) { return reg_->counter(name, label_); }
  Gauge& gauge(std::string_view name) { return reg_->gauge(name, label_); }
  Hist& histogram(std::string_view name) { return reg_->histogram(name, label_); }
  std::uint64_t register_callback(std::string_view name,
                                  std::function<double()> fn) {
    return reg_->register_callback(name, label_, std::move(fn));
  }

  const std::string& label() const { return label_; }

 private:
  MetricsRegistry* reg_;
  std::string label_;
};

/// JSON building blocks shared by the metrics / time-series / profile
/// serializers: escaped string, and a number that prints integral values
/// exactly (counters must round-trip).
void append_json_string(std::string& out, std::string_view s);
void append_json_number(std::string& out, double v);

/// Serialize a snapshot as the `mercury.metrics.v1` JSON document (see
/// scripts/check_bench_json.py for the schema).
std::string to_json(const Snapshot& snap);

/// Human-readable summary (counters/gauges, then histogram quantiles).
std::string summary_table(const Snapshot& snap);

/// RAII bundle of callback-gauge registrations: unregisters on destruction
/// (used by SwitchEngine to expose per-engine stats for its lifetime).
class CallbackGuard {
 public:
  CallbackGuard() = default;
  ~CallbackGuard() { release(); }
  CallbackGuard(const CallbackGuard&) = delete;
  CallbackGuard& operator=(const CallbackGuard&) = delete;

  void add(std::string_view name, std::string_view label,
           std::function<double()> fn) {
    ids_.push_back(registry().register_callback(name, label, std::move(fn)));
  }
  void release() {
    for (const std::uint64_t id : ids_) registry().unregister_callback(id);
    ids_.clear();
  }

 private:
  std::vector<std::uint64_t> ids_;
};

}  // namespace mercury::obs
