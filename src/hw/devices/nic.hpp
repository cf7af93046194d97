// Simulated NIC + point-to-point link (the paper's r8169 GbE through a
// gigabit switch). Links serialize packets (bandwidth) and add propagation
// latency; arrival optionally raises an interrupt on a bound CPU.
//
// All cycle timestamps live on the one shared simulation timeline, so two
// Machines joined by a Link exchange packets coherently as long as their
// steppers are co-advanced (cluster::Fabric does this).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "hw/interrupts.hpp"
#include "hw/types.hpp"

namespace mercury::hw {

struct Packet {
  std::uint32_t src_addr = 0;
  std::uint32_t dst_addr = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;  // kernel::net defines the values
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t flags = 0;
  std::size_t payload_bytes = 0;        // modelled payload size
  std::vector<std::uint8_t> inline_data;  // small control payloads only
  Cycles sent_at = 0;
};

class Nic;

class Link {
 public:
  struct Params {
    Cycles per_byte = 24;      // 1 Gb/s at 3 GHz (125 MB/s)
    Cycles latency = 30 * kCyclesPerMicrosecond;  // propagation + switch
    double drop_probability = 0.0;                // failure injection
  };

  Link();
  explicit Link(Params params);

  void attach(Nic* a, Nic* b);

  /// Called by a NIC: serialize + propagate, then enqueue at the peer.
  /// Returns the arrival timestamp (or nullopt if the packet was dropped).
  std::optional<Cycles> transmit(const Nic* from, Packet pkt, Cycles now);

  void set_drop_probability(double p) { params_.drop_probability = p; }
  /// Sever / restore the link (failure injection).
  void set_up(bool up) { up_ = up; }

  std::uint64_t packets_carried() const { return carried_; }
  std::uint64_t packets_dropped() const { return dropped_; }

 private:
  Params params_;
  Nic* ends_[2] = {nullptr, nullptr};
  Cycles free_at_ = 0;  // serialization: when the wire next becomes free
  bool up_ = true;
  std::uint64_t carried_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t drop_seed_ = 0x243F6A8885A308D3ull;
};

class Nic {
 public:
  struct Params {
    Cycles tx_overhead;
    Cycles rx_overhead;
    Params();
  };

  explicit Nic(std::uint32_t addr, Params params = Params{});

  std::uint32_t address() const { return addr_; }

  void connect(Link* link) { link_ = link; }
  bool connected() const { return link_ != nullptr; }

  /// Bind RX interrupts: arrivals raise `vector` on `cpu` via `ic`.
  void bind_irq(InterruptController* ic, std::uint32_t cpu,
                std::uint8_t vector = kVecNic);

  /// Transmit; returns cycles consumed by the driver-visible part (DMA ring
  /// write + doorbell). Wire time happens asynchronously on the link.
  Cycles send(Packet pkt, Cycles now);

  /// Called by the link on delivery.
  void deliver(Packet pkt, Cycles arrival);

  /// Fetch the next packet whose arrival time has passed. Charges nothing;
  /// the driver charges rx_overhead itself.
  std::optional<Packet> poll(Cycles now);

  /// Earliest pending arrival (for idle advancement).
  std::optional<Cycles> earliest_arrival() const;

  Cycles rx_overhead() const { return params_.rx_overhead; }
  std::uint64_t tx_count() const { return tx_; }

 private:
  struct Queued {
    Packet pkt;
    Cycles arrival;
  };

  std::uint32_t addr_;
  Params params_;
  Link* link_ = nullptr;
  std::deque<Queued> rx_queue_;
  InterruptController* irq_ic_ = nullptr;
  std::uint32_t irq_cpu_ = 0;
  std::uint8_t irq_vector_ = kVecNic;
  std::uint64_t tx_ = 0;
};

}  // namespace mercury::hw
