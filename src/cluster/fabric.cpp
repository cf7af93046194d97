#include "cluster/fabric.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mercury::cluster {

Node& Fabric::add_node(const std::string& name, NodeConfig config) {
  if (config.addr == 0)
    config.addr = 0x0A000001 + static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(name, config));
  // Trace-node ids are 1-based: 0 stays "unscoped single-machine".
  nodes_.back()->set_trace_node(static_cast<std::uint32_t>(nodes_.size()));
  return *nodes_.back();
}

bool Fabric::step_node(Node& n) {
#if MERCURY_OBS_ENABLED
  obs::TraceNodeScope node_scope(n.trace_node());
  obs::ProfScope prof_scope(n.prof_bucket(), &n.machine().cpu(0));
#endif
  // Pause intervals recorded while this node runs land in its own ledger,
  // so nodes[] rollups attribute unavailability per node.
  obs::PauseLedgerScope pause_scope(n.pauses());
  return n.active().step();
}

hw::Link& Fabric::connect(Node& a, Node& b, hw::Link::Params params) {
  auto key = std::make_pair(std::min(&a, &b), std::max(&a, &b));
  auto link = std::make_unique<hw::Link>(params);
  link->attach(&a.machine().nic(), &b.machine().nic());
  auto& slot = links_[key];
  slot = std::move(link);
  return *slot;
}

hw::Link* Fabric::link_between(Node& a, Node& b) {
  auto key = std::make_pair(std::min(&a, &b), std::max(&a, &b));
  auto it = links_.find(key);
  return it == links_.end() ? nullptr : it->second.get();
}

hw::Cycles Fabric::now() const {
  hw::Cycles t = 0;
  for (const auto& n : nodes_)
    t = std::max(t, n->machine().max_cpu_time());
  return t;
}

bool Fabric::co_step(const std::function<bool()>& pred, hw::Cycles budget) {
  constexpr hw::Cycles kLookahead = 20 * hw::kCyclesPerMicrosecond;
  hw::Cycles start = ~hw::Cycles{0};
  for (auto& n : nodes_)
    if (!n->failed())
      start = std::min(start, n->active().earliest_cpu_time());

  while (!pred()) {
    // Earliest live kernel steps, clamped to the runner-up's horizon.
    Node* earliest = nullptr;
    Node* runner_up = nullptr;
    for (auto& n : nodes_) {
      if (n->failed()) continue;
      if (earliest == nullptr || n->active().earliest_cpu_time() <
                                     earliest->active().earliest_cpu_time()) {
        runner_up = earliest;
        earliest = n.get();
      } else if (runner_up == nullptr ||
                 n->active().earliest_cpu_time() <
                     runner_up->active().earliest_cpu_time()) {
        runner_up = n.get();
      }
    }
    MERC_CHECK_MSG(earliest != nullptr, "co_step with no live nodes");

    kernel::Kernel& k = earliest->active();
    if (runner_up != nullptr)
      k.set_idle_clamp(runner_up->active().earliest_cpu_time() + kLookahead);
    const bool progressed = step_node(*earliest);
    k.set_idle_clamp(0);
    if (!progressed) {
      bool any = false;
      for (auto& n : nodes_) {
        if (n->failed() || n.get() == earliest) continue;
        if (step_node(*n)) {
          any = true;
          break;
        }
      }
      if (!any) {
        if (pred()) return true;
        // Everyone parked: release the earliest past its clamp.
        k.advance_all_cpus_to(
            (runner_up ? runner_up->active().earliest_cpu_time() : k.earliest_cpu_time()) +
            kLookahead);
        if (!step_node(*earliest)) return pred();
      }
    }

    hw::Cycles now_max = 0;
    for (auto& n : nodes_)
      if (!n->failed())
        now_max = std::max(now_max, n->active().earliest_cpu_time());
    if (now_max - start > budget) return false;
  }
  return true;
}

}  // namespace mercury::cluster
