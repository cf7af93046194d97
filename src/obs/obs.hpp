// Telemetry umbrella: the instrumentation hooks of the hot paths.
//
// Hooks:
//   - obs::Interval and obs::record_interval (obs/interval.hpp): every timed
//     interval, emitted once and fanned out to the flight ring (which the
//     Chrome trace views), the pause ledger and the phase histograms;
//   - MERC_FLIGHT: point events on the flight ring (requests, commits,
//     cancels, fault hits, rollback steps, verdicts, markers), each a
//     Chrome instant;
//   - MERC_COUNT / MERC_GAUGE_SET / MERC_HIST: registry instruments;
//   - MERC_PROF_SCOPE: an engine-profiler scope.
//
// With the MERCURY_OBS CMake option OFF (MERCURY_OBS_ENABLED=0) the macros
// compile away completely, and so do the interval stream's flight and
// histogram views: no registry lookups, no ring writes. What stays is
// what results are read from: the interval stream's pairing and the pause
// ledger, which arc downtime comes from, so an obs-off build reports the
// same downtime. The obs library itself builds in both configurations, so
// benches and tests that *read* telemetry keep linking.
//
// Macro cost when enabled: the registry lookup happens once per call site
// (function-local static reference); the steady-state update is an inlined
// integer add / ring-slot store. Instrumentation must never cpu.charge():
// telemetry observes simulated time, it does not create it.
#pragma once

#include <chrono>

#include "obs/flight_recorder.hpp"
#include "obs/interval.hpp"
#include "obs/metrics.hpp"
#include "obs/pause_ledger.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

#ifndef MERCURY_OBS_ENABLED
#define MERCURY_OBS_ENABLED 1
#endif

#include "hw/cpu.hpp"

namespace mercury::obs {

/// RAII engine-profiler scope (see profiler.hpp): charges `bucket` with the
/// wall-clock nanoseconds and simulated cycles spent inside the scope, and
/// with its self time (the wall time no nested scope took). Reads host
/// *and* sim clocks only while the profiler is enabled; never charges
/// simulated time itself.
class ProfScope {
 public:
  ProfScope(ProfBucket* bucket, const hw::Cpu* cpu)
      : bucket_(profiler().enabled() ? bucket : nullptr), cpu_(cpu) {
    if (bucket_) {
      profiler().enter();
      wall_begin_ = std::chrono::steady_clock::now();
      sim_begin_ = cpu_ ? cpu_->now() : 0;
    }
  }
  ~ProfScope() {
    if (!bucket_) return;
    const auto wall = std::chrono::steady_clock::now() - wall_begin_;
    const std::uint64_t wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
    const std::uint64_t sim =
        cpu_ ? static_cast<std::uint64_t>(cpu_->now() - sim_begin_) : 0;
    profiler().record(*bucket_, wall_ns, profiler().exit(wall_ns), sim);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfBucket* bucket_;
  const hw::Cpu* cpu_;
  std::chrono::steady_clock::time_point wall_begin_{};
  hw::Cycles sim_begin_ = 0;
};

}  // namespace mercury::obs

#if MERCURY_OBS_ENABLED

#define MERC_OBS_CONCAT_(a, b) a##b
#define MERC_OBS_CONCAT(a, b) MERC_OBS_CONCAT_(a, b)

/// Count an event on the global registry: MERC_COUNT("kernel.syscalls").
#define MERC_COUNT(name_) MERC_COUNT_N(name_, 1)
#define MERC_COUNT_N(name_, n_)                                         \
  do {                                                                  \
    static ::mercury::obs::Counter& MERC_OBS_CONCAT(merc_obs_c_, __LINE__) = \
        ::mercury::obs::registry().counter(name_);                      \
    MERC_OBS_CONCAT(merc_obs_c_, __LINE__).inc(n_);                     \
  } while (0)

/// Set a gauge: MERC_GAUGE_SET("availability.fraction", 0.99999).
#define MERC_GAUGE_SET(name_, v_)                                       \
  do {                                                                  \
    static ::mercury::obs::Gauge& MERC_OBS_CONCAT(merc_obs_g_, __LINE__) = \
        ::mercury::obs::registry().gauge(name_);                        \
    MERC_OBS_CONCAT(merc_obs_g_, __LINE__).set(static_cast<double>(v_)); \
  } while (0)

/// Record a value into a named histogram (cycles, bytes, counts).
#define MERC_HIST(name_, v_)                                            \
  do {                                                                  \
    static ::mercury::obs::Hist& MERC_OBS_CONCAT(merc_obs_h_, __LINE__) = \
        ::mercury::obs::registry().histogram(name_);                    \
    MERC_OBS_CONCAT(merc_obs_h_, __LINE__).record(                      \
        static_cast<std::uint64_t>(v_));                                \
  } while (0)

/// Black-box flight event on cpu_'s ring, stamped with its id and clock:
/// MERC_FLIGHT(cpu, kFaultHit, "adopt.rebuild", site, kind, visits).
/// Up to three integer arguments; type_ is a bare FlightType enumerator.
#define MERC_FLIGHT(cpu_, type_, name_, ...)                             \
  ::mercury::obs::flight_recorder().record(                              \
      (cpu_).id(), ::mercury::obs::FlightType::type_, name_,             \
      (cpu_).now() __VA_OPT__(, ) __VA_ARGS__)

/// Engine-profiler scope: charge the named bucket with wall-clock ns and
/// simulated cycles spent in the rest of the block. cpu_ptr_ may be null
/// (wall-clock only). The bucket lookup runs once per call site.
#define MERC_PROF_SCOPE(name_, cpu_ptr_)                                  \
  static ::mercury::obs::ProfBucket* MERC_OBS_CONCAT(merc_obs_pb_,        \
                                                     __LINE__) =          \
      ::mercury::obs::profiler().bucket(name_);                           \
  ::mercury::obs::ProfScope MERC_OBS_CONCAT(merc_obs_ps_, __LINE__)(      \
      MERC_OBS_CONCAT(merc_obs_pb_, __LINE__), cpu_ptr_)

#else  // !MERCURY_OBS_ENABLED

#define MERC_COUNT(name_) ((void)0)
#define MERC_COUNT_N(name_, n_) ((void)0)
#define MERC_GAUGE_SET(name_, v_) ((void)0)
#define MERC_HIST(name_, v_) ((void)0)
#define MERC_FLIGHT(...) ((void)0)
#define MERC_PROF_SCOPE(name_, cpu_ptr_) ((void)0)

#endif  // MERCURY_OBS_ENABLED
