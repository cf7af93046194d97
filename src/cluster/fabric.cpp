#include "cluster/fabric.hpp"

#include <algorithm>

#include "kernel/stepper.hpp"

namespace mercury::cluster {

Node& Fabric::add_node(const std::string& name, NodeConfig config) {
  if (config.addr == 0)
    config.addr = 0x0A000001 + static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(name, config));
  // Trace-node ids are 1-based: 0 stays "unscoped single-machine".
  nodes_.back()->set_trace_node(static_cast<std::uint32_t>(nodes_.size()));
  return *nodes_.back();
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
  std::vector<Node*> live;
  std::vector<kernel::Kernel*> kernels;
  for (auto& n : nodes_) {
    if (n->failed()) continue;
    live.push_back(n.get());
    kernels.push_back(&n->active());
  }
  return kernel::step_until(kernels, pred, budget,
                            [&](std::size_t i, hw::Cycles horizon) {
                              NodeScope scope(*live[i]);
                              return kernels[i]->step(horizon);
                            });
}

}  // namespace mercury::cluster
