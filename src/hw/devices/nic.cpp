#include "hw/devices/nic.hpp"

#include <algorithm>

#include "hw/costs.hpp"
#include "util/assert.hpp"

namespace mercury::hw {

Link::Link() : Link(Params{}) {}
Link::Link(Params params) : params_(params) {}

void Link::attach(Nic* a, Nic* b) {
  ends_[0] = a;
  ends_[1] = b;
  if (a) a->connect(this);
  if (b) b->connect(this);
}

std::optional<Cycles> Link::transmit(const Nic* from, Packet pkt, Cycles now) {
  Nic* peer = (ends_[0] == from) ? ends_[1] : ends_[0];
  MERC_CHECK_MSG(peer != nullptr, "transmit on unattached link");
  if (!up_) {
    ++dropped_;
    return std::nullopt;
  }
  if (params_.drop_probability > 0.0) {
    // Deterministic xorshift stream local to the link.
    drop_seed_ ^= drop_seed_ << 13;
    drop_seed_ ^= drop_seed_ >> 7;
    drop_seed_ ^= drop_seed_ << 17;
    const double u = static_cast<double>(drop_seed_ >> 11) * 0x1.0p-53;
    if (u < params_.drop_probability) {
      ++dropped_;
      return std::nullopt;
    }
  }
  const std::size_t wire_bytes = pkt.payload_bytes + 64;  // headers + framing
  const Cycles start = std::max(now, free_at_);
  const Cycles serialized = start + params_.per_byte * wire_bytes;
  free_at_ = serialized;
  const Cycles arrival = serialized + params_.latency;
  ++carried_;
  peer->deliver(std::move(pkt), arrival);
  return arrival;
}

Nic::Params::Params()
    : tx_overhead(costs::kNicTxOverhead), rx_overhead(costs::kNicRxOverhead) {}

Nic::Nic(std::uint32_t addr, Params params) : addr_(addr), params_(params) {}

void Nic::bind_irq(InterruptController* ic, std::uint32_t cpu, std::uint8_t vector) {
  irq_ic_ = ic;
  irq_cpu_ = cpu;
  irq_vector_ = vector;
}

Cycles Nic::send(Packet pkt, Cycles now) {
  MERC_CHECK_MSG(link_ != nullptr, "send on disconnected NIC");
  ++tx_;
  pkt.sent_at = now;
  (void)link_->transmit(this, std::move(pkt), now + params_.tx_overhead);
  return params_.tx_overhead;
}

void Nic::deliver(Packet pkt, Cycles arrival) {
  rx_queue_.push_back(Queued{std::move(pkt), arrival});
  if (irq_ic_) irq_ic_->raise(irq_cpu_, irq_vector_, arrival);
}

std::optional<Packet> Nic::poll(Cycles now) {
  auto it = std::min_element(rx_queue_.begin(), rx_queue_.end(),
                             [](const Queued& a, const Queued& b) {
                               return a.arrival < b.arrival;
                             });
  if (it == rx_queue_.end() || it->arrival > now) return std::nullopt;
  Packet out = std::move(it->pkt);
  rx_queue_.erase(it);
  return out;
}

std::optional<Cycles> Nic::earliest_arrival() const {
  if (rx_queue_.empty()) return std::nullopt;
  Cycles e = rx_queue_.front().arrival;
  for (const auto& q : rx_queue_) e = std::min(e, q.arrival);
  return e;
}

}  // namespace mercury::hw
