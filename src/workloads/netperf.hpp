// Network benchmarks (paper Fig.3/4): ping RTT and Iperf TCP bandwidth
// between the system-under-test and a native peer across a gigabit link.
//
// Owns the peer machine (a plain native kernel: the in-kernel echo responder
// answers pings; an iperf server task sinks TCP) and steps both kernels on
// the shared simulated timeline (kernel/stepper.hpp).
#pragma once

#include <memory>

#include "kernel/kernel.hpp"
#include "pv/direct_ops.hpp"

namespace mercury::workloads {

struct NetperfParams {
  int ping_count = 20;
  std::size_t ping_bytes = 56;
  std::size_t iperf_bytes = 24 * 1024 * 1024;
  double timeout_us = 200'000.0;
};

struct NetperfResult {
  double ping_rtt_us = 0;
  double tcp_mbit_s = 0;
  int pings_lost = 0;
};

/// A second machine running a native kernel as the remote endpoint.
class PeerHost {
 public:
  explicit PeerHost(std::uint32_t addr = 0x0A000002);
  hw::Machine& machine() { return *machine_; }
  kernel::Kernel& kernel() { return *kernel_; }
  /// Wire this peer to the SUT's NIC.
  void connect_to(hw::Machine& other, hw::Link::Params params = {});
  hw::Link& link() { return *link_; }

 private:
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<pv::DirectOps> direct_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<hw::Link> link_;
};

class Netperf {
 public:
  static NetperfResult run(kernel::Kernel& client, PeerHost& peer,
                           const NetperfParams& p = {});
};

}  // namespace mercury::workloads
