// The cluster fabric: nodes, links, and the fleet's run on the one stepper.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cluster/node.hpp"
#include "hw/devices/nic.hpp"

namespace mercury::cluster {

class Fabric {
 public:
  /// Add a node; its NIC address defaults to 10.0.0.<index+1>.
  Node& add_node(const std::string& name, NodeConfig config = {});

  Node& node(std::size_t i) { return *nodes_.at(i); }
  std::size_t size() const { return nodes_.size(); }

  /// Wire two nodes point-to-point (our switch model: one link per pair).
  hw::Link& connect(Node& a, Node& b, hw::Link::Params params = {});
  hw::Link* link_between(Node& a, Node& b);

  /// Step every non-failed node's active kernel on the one stepper
  /// (kernel/stepper.hpp), each step under its NodeScope, until pred()
  /// holds or the budget is exhausted.
  bool co_step(const std::function<bool()>& pred, hw::Cycles budget);

  /// Latest clock across the cluster (the fabric's wall time).
  hw::Cycles now() const;

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::pair<Node*, Node*>, std::unique_ptr<hw::Link>> links_;
};

}  // namespace mercury::cluster
