// Failure injection for dependability scenarios: sensor anomalies (the
// §6.5 failure-prediction signal) and link failures.
#pragma once

#include <cstdint>

#include "cluster/fabric.hpp"

namespace mercury::cluster {

class FailureInjector {
 public:
  /// Arrange for the node's temperature sensor to report an over-threshold
  /// value at simulated time `at` (kernel-timer driven).
  static void schedule_overheat(Node& node, hw::Cycles at,
                                double temperature_c = 96.0);

  /// Degrade the link between two nodes.
  static void set_link_loss(Fabric& fabric, Node& a, Node& b,
                            double drop_probability);
};

}  // namespace mercury::cluster
