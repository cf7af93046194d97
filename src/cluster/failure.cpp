#include "cluster/failure.hpp"

#include "util/assert.hpp"

namespace mercury::cluster {

void FailureInjector::schedule_overheat(Node& node, hw::Cycles at,
                                        double temperature_c) {
  Node* n = &node;
  node.active().add_timer(
      at, [n, temperature_c] { n->machine().sensors().inject_overheat(temperature_c); });
}

void FailureInjector::set_link_loss(Fabric& fabric, Node& a, Node& b,
                                    double drop_probability) {
  hw::Link* link = fabric.link_between(a, b);
  MERC_CHECK_MSG(link != nullptr, "no link between nodes");
  link->set_drop_probability(drop_probability);
}

}  // namespace mercury::cluster
