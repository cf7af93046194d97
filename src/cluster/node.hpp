// A cluster node: a Machine running a Mercury (self-virtualizing) OS.
#pragma once

#include <memory>
#include <string>

#include "core/mercury.hpp"
#include "hw/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/pause_ledger.hpp"
#include "obs/profiler.hpp"

namespace mercury::cluster {

struct NodeConfig {
  std::size_t cpus = 1;
  std::size_t mem_kb = 512 * 1024;
  std::size_t kernel_mem_kb = 128 * 1024;
  std::uint32_t addr = 0;  // 0 = assigned by the fabric
};

class Node {
 public:
  Node(std::string name, NodeConfig config);

  const std::string& name() const { return name_; }
  hw::Machine& machine() { return *machine_; }
  core::Mercury& mercury() { return *mercury_; }

  /// The OS whose stepper drives this node. Initially the node's own
  /// Mercury kernel; after an inbound migration, the migrated guest.
  kernel::Kernel& active() { return *active_; }
  void set_active(kernel::Kernel* k) { active_ = k; }
  bool hosts_foreign_guest() const {
    return active_ != &mercury_->kernel();
  }

  // --- observability ---
  /// Trace attribution id (Chrome export pid). 0 until the fabric assigns
  /// index+1 in add_node; standalone Nodes stay unscoped.
  std::uint16_t trace_node() const { return trace_node_; }
  void set_trace_node(std::uint16_t id) { trace_node_ = id; }

  /// This node's label-bound view of the global metrics registry: every
  /// instrument created through it carries "node=<name>", so fleet soaks
  /// report per-node series instead of one blended namespace.
  obs::ScopedMetrics& metrics() { return metrics_; }
  const std::string& obs_label() const { return metrics_.label(); }

  /// Profiler bucket charged for this node's share of fabric dispatch
  /// (created lazily; stable for the node's lifetime).
  obs::ProfBucket* prof_bucket();

  /// This node's unavailability ledger. A NodeScope installs it as the
  /// ambient pause ledger while this node runs, so fleet soaks get per-node
  /// pause attribution instead of one blended ledger.
  obs::PauseLedger& pauses() { return pauses_; }
  const obs::PauseLedger& pauses() const { return pauses_; }

  // --- failure state ---
  bool failed() const { return failed_; }
  void fail() { failed_ = true; }
  void repair() { failed_ = false; }

 private:
  std::string name_;
  NodeConfig config_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<core::Mercury> mercury_;
  kernel::Kernel* active_ = nullptr;
  std::uint16_t trace_node_ = 0;
  obs::ScopedMetrics metrics_;
  obs::ProfBucket* prof_bucket_ = nullptr;
  obs::PauseLedger pauses_;
  bool failed_ = false;
};

/// A node's attribution for whatever runs inside the scope: flight records
/// land under its Chrome pid and host time in its profiler bucket (both
/// compiled away with telemetry off), pause intervals in its ledger.
/// Fabric::co_step opens one around every step of a node, ClusterSoak
/// around each node's dwell.
class NodeScope {
 public:
  explicit NodeScope(Node& n)
      :
#if MERCURY_OBS_ENABLED
        trace_(n.trace_node()),
        prof_(n.prof_bucket(), &n.machine().cpu(0)),
#endif
        pauses_(n.pauses()) {
  }
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
#if MERCURY_OBS_ENABLED
  obs::TraceNodeScope trace_;
  obs::ProfScope prof_;
#endif
  obs::PauseLedgerScope pauses_;
};

}  // namespace mercury::cluster
