#include "vmm/netif.hpp"

#include "pv/costs.hpp"
#include "util/assert.hpp"

namespace mercury::vmm {

NetBackend::NetBackend(hw::Machine& machine, EventChannels& evtchn,
                       GrantTable& gnttab, DomainId driver_domain)
    : machine_(machine),
      evtchn_(evtchn),
      gnttab_(gnttab),
      driver_domain_(driver_domain) {}

void NetBackend::connect_frontend(DomainId domU) {
  frontend_ = domU;
  tx_port_ = evtchn_.alloc(domU, driver_domain_);
  rx_port_ = evtchn_.alloc(driver_domain_, domU);
}

void NetBackend::disconnect_frontend() {
  if (frontend_ == kDomInvalid) return;
  evtchn_.close(tx_port_);
  evtchn_.close(rx_port_);
  tx_port_ = rx_port_ = -1;
  frontend_ = kDomInvalid;
}

void NetBackend::tx(hw::Cpu& cpu, hw::Packet pkt) {
  MERC_CHECK_MSG(connected(), "netfront tx with no backend connection");
  // Frontend: grant the packet pages and queue.
  const std::size_t pages = 1 + pkt.payload_bytes / hw::kPageSize;
  const int ref = gnttab_.grant(frontend_, 0, driver_domain_, true);
  MERC_CHECK(tx_ring_.push_request(cpu, NetTxRequest{ref, pkt.payload_bytes}));
  evtchn_.notify(cpu, tx_port_);
  // Backend (inline on this CPU): map, copy, hand to the real driver.
  auto req = tx_ring_.pop_request(cpu);
  MERC_CHECK(req.has_value());
  gnttab_.map(cpu, driver_domain_, req->grant_ref);
  cpu.charge(pv::costs::kBackendCopyPerPage * pages);
  cpu.charge(machine_.nic().send(std::move(pkt), cpu.now()));
  gnttab_.unmap(cpu, driver_domain_, req->grant_ref);
  tx_ring_.push_response(cpu, NetTxResponse{});
  (void)tx_ring_.pop_response(cpu);
  gnttab_.end(frontend_, ref);
}

std::optional<hw::Packet> NetBackend::rx_poll(hw::Cpu& cpu) {
  MERC_CHECK_MSG(connected(), "netfront rx with no backend connection");
  auto pkt = machine_.nic().poll(cpu.now());
  if (!pkt) return std::nullopt;
  ++rx_count_;
  // Backend: real driver rx + copy into a granted guest buffer + event.
  cpu.charge(machine_.nic().rx_overhead());
  const std::size_t pages = 1 + pkt->payload_bytes / hw::kPageSize;
  const int ref = gnttab_.grant(frontend_, 0, driver_domain_, false);
  gnttab_.map(cpu, driver_domain_, ref);
  cpu.charge(pv::costs::kBackendCopyPerPage * pages);
  gnttab_.unmap(cpu, driver_domain_, ref);
  gnttab_.end(frontend_, ref);
  evtchn_.notify(cpu, rx_port_);
  (void)evtchn_.take_pending(rx_port_);
  return pkt;
}

}  // namespace mercury::vmm
