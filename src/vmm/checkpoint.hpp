// Checkpoint/restore of a domain's memory image (paper §6.1).
//
// The VMM is attached (or already active), snapshots every frame the domain
// owns plus its vcpu state, and detaches again. Restore copies the image
// back. Divergence from the paper noted in DESIGN.md: host-side C++ kernel
// bookkeeping (task structs) is not rolled back — the verifiable contract is
// bit-exact restoration of the domain's *memory* (page tables included) and
// the timing of both operations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "vmm/hypervisor.hpp"

namespace mercury::vmm {

/// A zero-page-aware memory image: a frame whose backing was never
/// materialized reads as zeros and is stored as nothing; every other frame
/// is one 4 KB page of `data`.
struct Snapshot {
  static constexpr std::uint32_t kZeroPage = ~std::uint32_t{0};

  DomainId dom = kDomInvalid;
  hw::Pfn first_frame = 0;
  std::size_t frame_count = 0;
  hw::Cycles taken_at = 0;
  std::vector<std::uint32_t> slot;  // per frame: its page in data, or kZeroPage
  std::vector<std::uint8_t> data;   // the stored pages, packed
  std::vector<VcpuContext> vcpus;

  /// The logical image size, zero pages included.
  std::size_t bytes() const { return frame_count * hw::kPageSize; }
  /// Frame `i`'s bytes, or nullptr for a zero page.
  const std::uint8_t* frame(std::size_t i) const {
    return slot[i] == kZeroPage
               ? nullptr
               : data.data() + std::size_t{slot[i]} * hw::kPageSize;
  }
};

class Checkpointer {
 public:
  /// Snapshot the domain's memory + vcpu state. Charges copy costs to `cpu`.
  static Snapshot take(hw::Cpu& cpu, Hypervisor& hv, DomainId dom);

  /// Restore a snapshot into the same domain (memory must still be at the
  /// same machine frames). Charges copy costs.
  static void restore(hw::Cpu& cpu, Hypervisor& hv, const Snapshot& snap);

  /// Bit-exact comparison of the current memory against a snapshot.
  static bool matches(Hypervisor& hv, const Snapshot& snap);
};

}  // namespace mercury::vmm
