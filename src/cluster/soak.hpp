// Chaos-soak harness: drive hundreds of *supervised* attach/detach cycles
// under a fault storm while a workload runs, account availability, and emit
// a machine-checkable `mercury.soak.v1` verdict (the robustness analogue of
// the bench JSON artifacts — CI gates on it).
//
// The driver is kernel-timer based: a periodic pump submits the next switch
// request (alternating toward and away from the virtual mode) through the
// SwitchSupervisor whenever the previous one has resolved, so it composes
// with any workload that is simultaneously driving the same kernel. Every
// resolution updates outcome counters, the AvailabilityTracker (a committed
// switch is a short, accounted service interruption), and optionally the
// machine-state invariant checker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/availability.hpp"
#include "cluster/fabric.hpp"
#include "core/switch_supervisor.hpp"
#include "obs/timeseries.hpp"
#include "util/rng.hpp"

namespace mercury::cluster {

/// Per-node rollup inside a fleet soak verdict (the `nodes[]` section of
/// mercury.soak.v1). Empty for single-machine soaks.
struct NodeSoakStats {
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t quarantines = 0;
  double availability = 1.0;
  std::uint64_t interruptions = 0;
  std::uint64_t downtime_cycles = 0;
  std::uint64_t span_cycles = 0;
  // Pause-observatory rollup (this node's ledger; see obs/pause_ledger.hpp).
  // `pause_unattributed` must be 0 — an orphaned begin/end half is a
  // pairing bug, and the soak gate fails on it.
  std::uint64_t pause_intervals = 0;
  std::uint64_t pause_unattributed = 0;
  std::uint64_t pause_worst_cycles = 0;
  std::string pause_worst_cause = "none";
  std::string final_health = "healthy";
  std::string final_mode = "native";
};

/// Everything a soak run measures, flattened for the mercury.soak.v1
/// serializer. SoakDriver::report() fills the switch/health/availability
/// sections and quotes the storm regime as armed (from
/// FaultInjector::storm_config); the harness fills seed and workload
/// fields itself.
struct SoakReport {
  std::uint64_t seed = 0;
  std::size_t cpus = 0;
  std::uint64_t planned_cycles = 0;

  double storm_rate = 0.0;
  std::uint32_t storm_burst = 0;
  double storm_decay = 1.0;
  std::uint64_t storm_fires = 0;
  std::uint64_t storm_windows = 0;

  // Request outcomes. The counters cover every supervised request,
  // internal ones included; `unresolved` gates caller-submitted requests
  // only, so a supervisor-internal probe in flight at snapshot time does
  // not read as stranded.
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed_deadline = 0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t failed_quarantined = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t unresolved = 0;  // must be 0: no stranded caller requests

  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t backoffs = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t probes = 0;
  std::string final_health = "healthy";

  std::uint64_t rollbacks = 0;
  std::uint64_t engine_cancels = 0;

  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;  // must be 0

  double availability = 1.0;
  std::uint64_t interruptions = 0;
  std::uint64_t downtime_cycles = 0;
  std::uint64_t span_cycles = 0;

  std::uint64_t workload_ops = 0;
  std::uint64_t workload_bytes = 0;
  std::uint64_t workload_corruptions = 0;  // must be 0

  // Run-wide pause rollup: the ambient ledger for single-machine soaks, the
  // per-node ledgers merged for fleet soaks. `pause_unattributed` must be 0.
  std::uint64_t pause_intervals = 0;
  std::uint64_t pause_unattributed = 0;
  std::uint64_t pause_worst_cycles = 0;
  std::string pause_worst_cause = "none";

  bool converged = false;  // every request terminal, service back up
  std::string final_mode = "native";

  /// Per-node rollups (cluster soaks only; single-machine reports leave it
  /// empty and the serializer omits the section).
  std::vector<NodeSoakStats> nodes;
};

/// The mercury.soak.v1 document (embeds the live obs metrics snapshot).
std::string soak_report_json(const SoakReport& r);

/// Serialize and write to `path`. Returns false on I/O failure.
bool write_soak_report(const SoakReport& r, const std::string& path);

struct SoakParams {
  /// Supervised switch requests to drive end-to-end.
  std::uint64_t cycles = 200;
  /// Pump cadence; a tick with the previous request still live just
  /// re-arms.
  double request_interval_ms = 3.0;
  /// The virtual mode to alternate with native.
  core::ExecMode virt_mode = core::ExecMode::kPartialVirtual;
  /// Per-request options forwarded to the supervisor.
  hw::Cycles deadline = 0;
  std::uint32_t max_attempts = 0;
  /// Run the machine-state invariant checker after every resolution
  /// (host cost only).
  bool check_invariants = true;
  /// Probability that each driver cycle enables the engine's warm
  /// re-attach before submitting (0 = leave the engine's flag alone).
  /// The flip schedule is drawn from `warm_seed`, so a soak replays its
  /// exact warm/cold interleaving from the seed line.
  double warm_reattach_rate = 0.0;
  std::uint64_t warm_seed = 0;
};

class SoakDriver {
 public:
  explicit SoakDriver(core::SwitchSupervisor& supervisor, SoakParams p = {});

  /// Arm the request pump. Non-blocking: the caller drives the kernel
  /// (directly or through a workload's own run loop).
  void start();
  /// All `cycles` driver requests have resolved.
  bool done() const { return resolved_ >= params_.cycles; }
  /// Convenience: start() if needed, then drive the kernel until done()
  /// or the budget runs out.
  bool run_to_completion(hw::Cycles budget);

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t resolved() const { return resolved_; }
  std::uint64_t committed() const { return committed_; }
  std::uint64_t failed() const { return resolved_ - committed_; }
  std::uint64_t invariant_checks() const { return invariant_checks_; }
  std::uint64_t invariant_violations() const { return invariant_violations_; }
  AvailabilityTracker& availability() { return tracker_; }
  core::SwitchSupervisor& supervisor() { return sup_; }

  /// Report workload progress for the final report.
  void note_workload(std::uint64_t ops, std::uint64_t bytes,
                     std::uint64_t corruptions) {
    workload_ops_ = ops;
    workload_bytes_ = bytes;
    workload_corruptions_ = corruptions;
  }

  /// Snapshot the soak verdict (drivable any time; meaningful once done).
  SoakReport report(std::uint64_t seed) const;

 private:
  void arm_tick();
  void tick();
  void on_resolved(const core::SupervisedRequest& r);
  hw::Cycles now() const;

  core::SwitchSupervisor& sup_;
  kernel::Kernel& kernel_;
  SoakParams params_;

  bool started_ = false;
  bool finished_ = false;
  bool outstanding_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t resolved_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t invariant_checks_ = 0;
  std::uint64_t invariant_violations_ = 0;
  std::uint64_t workload_ops_ = 0;
  std::uint64_t workload_bytes_ = 0;
  std::uint64_t workload_corruptions_ = 0;
  AvailabilityTracker tracker_;
  util::Rng warm_rng_;
  /// Timers capture a weak reference: one may survive the driver.
  std::shared_ptr<SoakDriver*> self_;
};

struct ClusterSoakParams {
  std::size_t nodes = 4;
  std::size_t cpus_per_node = 2;
  /// Cluster-wide switch waves to drive: each wave submits one supervised
  /// request per node (all toward the mode opposite the fleet's current
  /// one) and runs until every node resolved.
  std::uint64_t waves = 8;
  core::ExecMode virt_mode = core::ExecMode::kPartialVirtual;
  core::SupervisorConfig supervisor;
  std::uint64_t seed = 0;
  /// Idle dwell between waves, on every node's own clock. This is the
  /// service-up time the availability accounting measures interruptions
  /// against — without it the span is nothing but switch windows and
  /// availability reads near zero by construction.
  double wave_interval_ms = 5.0;
  /// Time-series sampling cadence on node 0's sim clock, and per-series
  /// ring capacity.
  double sample_interval_ms = 1.0;
  std::size_t sample_capacity = 256;
};

/// Fleet-scale soak: its own Fabric of `nodes` Mercury nodes, one
/// SwitchSupervisor per node, cluster-wide switch waves driven through
/// Fabric::co_step, per-node availability accounting, and a
/// TimeSeriesSampler producing per-node series on the sim clock. Each wave
/// is one causal trace: a root wave span, per-node fabric.msg spans, and
/// the per-node commit/crew spans link beneath them in the Chrome export.
///
/// Deterministic by construction: no fault storms, per-node supervisor
/// seeds derived from params.seed, and all sampled series read state owned
/// by this run — so the emitted mercury.timeseries.v1 is byte-identical
/// for identical params (tested).
class ClusterSoak {
 public:
  explicit ClusterSoak(ClusterSoakParams p = {});
  ~ClusterSoak();

  /// Drive all waves to completion. False if any wave exhausted its budget
  /// or left a request unresolved.
  bool run();

  Fabric& fabric() { return fabric_; }
  const obs::TimeSeriesSampler& sampler() const { return sampler_; }
  hw::Cycles sample_interval() const { return sample_interval_; }
  std::uint64_t waves_run() const { return waves_run_; }

  /// Fleet verdict: summed rollups + per-node sections.
  SoakReport report() const;
  /// The mercury.timeseries.v1 document for this run.
  std::string timeseries_json() const {
    return sampler_.to_json(sample_interval_);
  }

 private:
  struct NodeRt {
    Node* node = nullptr;
    std::unique_ptr<core::SwitchSupervisor> supervisor;
    AvailabilityTracker tracker;
    std::uint64_t submitted = 0;
    std::uint64_t committed = 0;
    std::uint64_t failed = 0;
    bool outstanding = false;
  };

  void arm_sampler();
  void run_wave();
  void dwell();
  void on_resolved(NodeRt& rt, const core::SupervisedRequest& r);

  ClusterSoakParams params_;
  Fabric fabric_;
  std::vector<std::unique_ptr<NodeRt>> nodes_;
  obs::TimeSeriesSampler sampler_;
  hw::Cycles sample_interval_ = 0;
  std::uint64_t waves_run_ = 0;
  bool all_resolved_ok_ = true;
  bool finished_ = false;
  /// Sampler timers capture a weak reference (one may outlive the soak).
  std::shared_ptr<ClusterSoak*> self_;
};

}  // namespace mercury::cluster
