// Split network driver: domU packets traverse frontend ring -> grant copy ->
// backend in the driver domain -> real NIC (and the reverse for receive).
// The per-packet copy + event cost is what makes domU networking CPU-bound
// (paper Fig.3/4: iperf -60..70% in domainU).
#pragma once

#include <cstdint>
#include <optional>

#include "hw/cpu.hpp"
#include "hw/machine.hpp"
#include "vmm/event_channel.hpp"
#include "vmm/grant_table.hpp"
#include "vmm/ring.hpp"

namespace mercury::vmm {

struct NetTxRequest {
  int grant_ref = -1;
  std::size_t bytes = 0;
};
struct NetTxResponse {
  bool ok = true;
};

class NetBackend {
 public:
  NetBackend(hw::Machine& machine, EventChannels& evtchn, GrantTable& gnttab,
             DomainId driver_domain);

  void connect_frontend(DomainId domU);
  bool connected() const { return frontend_ != kDomInvalid; }
  void disconnect_frontend();

  /// Frontend transmit: full split path, charged on the calling CPU.
  void tx(hw::Cpu& cpu, hw::Packet pkt);

  /// Frontend receive: backend pulls from the real NIC, copies into a
  /// granted guest buffer. Returns nullopt when nothing is pending.
  std::optional<hw::Packet> rx_poll(hw::Cpu& cpu);

  std::uint64_t packets_rx() const { return rx_count_; }

 private:
  hw::Machine& machine_;
  EventChannels& evtchn_;
  GrantTable& gnttab_;
  DomainId driver_domain_;
  DomainId frontend_ = kDomInvalid;
  IoRing<NetTxRequest, NetTxResponse> tx_ring_;
  int tx_port_ = -1;
  int rx_port_ = -1;
  std::uint64_t rx_count_ = 0;
};

}  // namespace mercury::vmm
