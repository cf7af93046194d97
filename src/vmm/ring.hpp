// Shared-memory I/O rings: the request/response conveyor between split
// frontend and backend drivers (Xen's blkif/netif rings).
//
// Header-only template; produce/consume charge the slot-handling cost.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "hw/cpu.hpp"
#include "pv/costs.hpp"
#include "util/assert.hpp"

namespace mercury::vmm {

template <typename Req, typename Resp>
class IoRing {
 public:
  explicit IoRing(std::size_t slots = 32) : slots_(slots) {}

  bool full() const { return requests_.size() >= slots_; }
  bool has_request() const { return !requests_.empty(); }
  std::size_t slots() const { return slots_; }

  /// Frontend: enqueue a request. Returns false when the ring is full (the
  /// frontend must wait for the backend to drain).
  bool push_request(hw::Cpu& cpu, Req r) {
    if (full()) return false;
    cpu.charge(pv::costs::kRingSlotWork);
    requests_.push_back(std::move(r));
    ++produced_;
    return true;
  }

  /// Backend: take the next request.
  std::optional<Req> pop_request(hw::Cpu& cpu) {
    if (requests_.empty()) return std::nullopt;
    cpu.charge(pv::costs::kRingSlotWork / 2);
    Req r = std::move(requests_.front());
    requests_.pop_front();
    return r;
  }

  /// Backend: publish a response.
  void push_response(hw::Cpu& cpu, Resp r) {
    cpu.charge(pv::costs::kRingSlotWork / 2);
    responses_.push_back(std::move(r));
  }

  /// Frontend: collect a response.
  std::optional<Resp> pop_response(hw::Cpu& cpu) {
    if (responses_.empty()) return std::nullopt;
    cpu.charge(pv::costs::kRingSlotWork / 2);
    Resp r = std::move(responses_.front());
    responses_.pop_front();
    return r;
  }

  std::uint64_t produced() const { return produced_; }

 private:
  std::size_t slots_;
  std::deque<Req> requests_;
  std::deque<Resp> responses_;
  std::uint64_t produced_ = 0;
};

}  // namespace mercury::vmm
