// Time-series sampler (observability pillar 3).
//
// End-of-run aggregates hide dynamics: an availability dip during one
// fault storm and a steady 1% degradation sum to the same number. The
// sampler snapshots a chosen set of scalar readers ("series") on the
// *simulated* clock into bounded per-series rings and serializes them as
// `mercury.timeseries.v1` — availability, in-flight switches, quarantine
// count, fault fires *over time*, per node.
//
// Layering: obs cannot depend on the kernel, so the sampler only exposes
// sample(now) — whoever owns a kernel (SoakDriver, ClusterSoak, a bench)
// arms the periodic timer and calls it. Readers are std::function<double()>
// callbacks viewing externally owned state; with a deterministic scenario
// the sampled values are a pure function of the seed, so the emitted JSON
// is byte-identical across runs (tested).
//
// Rings are bounded: past capacity the oldest points drop (counted), so an
// over-long soak degrades to "most recent window" instead of unbounded
// growth — the same policy as the trace and flight rings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/types.hpp"

namespace mercury::obs {

class TimeSeriesSampler {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  struct Point {
    hw::Cycles t = 0;
    double v = 0.0;
  };

  struct Series {
    std::string name;
    std::string label;  // e.g. "node=alpha"; empty for fleet-level series
    std::function<double()> read;
    std::vector<Point> points;  // ring once full
    std::size_t head = 0;       // next write position when wrapped
    bool wrapped = false;
  };

  explicit TimeSeriesSampler(std::size_t capacity_per_series = kDefaultCapacity)
      : capacity_(capacity_per_series ? capacity_per_series : 1) {}

  /// Register a series; `read` is invoked at every sample(now) and must stay
  /// valid for the sampler's lifetime.
  void add_series(std::string name, std::string label,
                  std::function<double()> read);

  /// Take one sample of every series, stamped with simulated time `now`.
  void sample(hw::Cycles now);

  std::size_t series_count() const { return series_.size(); }
  std::uint64_t samples_taken() const { return samples_taken_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Points of series `i`, oldest first (unwraps the ring).
  std::vector<Point> points(std::size_t i) const;

  /// mercury.timeseries.v1 JSON. `interval_cycles` is metadata describing
  /// the nominal sampling period (0 = aperiodic/manual).
  std::string to_json(hw::Cycles interval_cycles = 0) const;

 private:
  std::size_t capacity_;
  std::vector<Series> series_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace mercury::obs
