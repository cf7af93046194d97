// Discrete-event engine profiler (observability pillar 4).
//
// ROADMAP item 1 wants to parallelize the single-threaded discrete-event
// engine; before touching it we need to know where *wall-clock* time goes
// when the simulator runs, attributed to engine work classes (kernel step
// branches, per-node fabric dispatch, switch-engine commits). Each
// MERC_PROF_SCOPE site charges a named bucket with:
//   - count:      how many times the scope ran,
//   - wall_ns:    host nanoseconds spent inside it (std::chrono::steady_clock),
//   - sim_cycles: simulated cycles that elapsed inside it (cpu.now() delta),
// so the report shows both "what the host CPU is busy doing" and "how much
// simulated progress that bought" — the ratio is the engine's efficiency per
// work class and the baseline any parallelization PR is judged against.
//
// Scopes nest (switch.commit runs inside kernel.step.interrupt, which runs
// inside fabric.step.<node>), so wall_ns is inclusive. The profiler keeps a
// stack of open scopes and also charges each bucket with its self time,
// self_ns: wall time spent in the scope but in no scope nested inside it.
// Self times add up to the profiled wall time without double counting.
//
// The profiler is OFF by default: when disabled a ProfScope is a null-bucket
// early-out (no clock reads). Like all obs instrumentation it must never
// cpu.charge(), and the whole hook compiles away under MERCURY_OBS=OFF.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mercury::obs {

struct ProfBucket {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t wall_ns = 0;  // inclusive of nested scopes
  std::uint64_t self_ns = 0;  // exclusive: wall_ns minus nested scopes
  std::uint64_t sim_cycles = 0;
};

class EngineProfiler {
 public:
  /// Profiling starts disabled; MERC_PROF_SCOPE sites are cheap no-ops
  /// until something (bench_soak --profile-json, a test) turns it on.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Get-or-create the bucket named `name`. The returned pointer is stable
  /// for the profiler's lifetime, so call sites cache it in a function-local
  /// static and skip the string lookup on the steady-state path.
  ProfBucket* bucket(std::string_view name);

  /// Open a scope on the stack (ProfScope's constructor).
  void enter() { nested_ns_.push_back(0); }
  /// Close the innermost scope, which ran `wall_ns`: credit that time to
  /// the enclosing scope and return this scope's self time.
  std::uint64_t exit(std::uint64_t wall_ns) {
    const std::uint64_t nested = nested_ns_.back();
    nested_ns_.pop_back();
    if (!nested_ns_.empty()) nested_ns_.back() += wall_ns;
    return wall_ns > nested ? wall_ns - nested : 0;
  }

  void record(ProfBucket& b, std::uint64_t wall_ns, std::uint64_t self_ns,
              std::uint64_t sim_cycles) {
    ++b.count;
    b.wall_ns += wall_ns;
    b.self_ns += self_ns;
    b.sim_cycles += sim_cycles;
  }

  /// Copy of all buckets in creation order.
  std::vector<ProfBucket> snapshot() const;

  /// Zero every bucket's totals (bucket set and addresses are preserved —
  /// call sites hold cached pointers).
  void reset();

 private:
  bool enabled_ = false;
  std::vector<std::unique_ptr<ProfBucket>> buckets_;  // stable addresses
  std::vector<std::uint64_t> nested_ns_;  // per open scope: nested wall time
};

/// The process-global profiler MERC_PROF_SCOPE charges.
EngineProfiler& profiler();

/// mercury.profile.v1 JSON: enabled flag, totals, and per-bucket rows
/// (buckets in creation order). wall_ns_total is the profiled wall time,
/// the sum of self times; each bucket's wall_fraction is its self time's
/// share of it, so the fractions sum to 1.
std::string profile_json(const EngineProfiler& prof = profiler());

/// Write profile_json() to `path`; false on I/O failure.
bool write_profile_json(const std::string& path,
                        const EngineProfiler& prof = profiler());

}  // namespace mercury::obs
