// Hardware-managed translation lookaside buffer.
//
// Fixed capacity, FIFO replacement (deterministic). On x86 the TLB is
// flushed on CR3 writes — which is exactly why Xen-style designs keep VMM,
// kernel and user in one address space; the model reproduces that cost.
//
// The FIFO is part of the cycle model: a new VPN always replaces the slot
// under the FIFO pointer, even when a flush left other slots invalid, and
// flushes never move the pointer. A VPN → slot index over the valid entries
// makes lookup, insert and flush_page one hash probe instead of a scan of
// every slot, without changing which entry hits or which one is evicted.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "hw/pte.hpp"
#include "hw/types.hpp"

namespace mercury::hw {

struct TlbEntry {
  std::uint32_t vpn = 0;
  Pfn pfn = 0;
  bool writable = false;
  bool user = false;
  bool global = false;
  bool vmm_only = false;
  bool dirty = false;  // write-hits on a non-dirty entry re-walk (x86 A/D)
  bool valid = false;
};

class Tlb {
 public:
  /// The simulated TLB's size; smaller ones exist for unit tests.
  static constexpr std::size_t kMaxCapacity = 64;

  explicit Tlb(std::size_t capacity = kMaxCapacity);

  std::optional<TlbEntry> lookup(std::uint32_t vpn) const;
  void insert(std::uint32_t vpn, const Pte& pte);

  /// CR3 reload semantics: drop all non-global entries.
  void flush_all();
  /// Full flush including global entries (mode switches reload everything).
  void flush_global();
  void flush_page(std::uint32_t vpn);

  std::size_t valid_entries() const;

 private:
  // Open addressing with linear probing over 4× the capacity; a bucket
  // holds a slot number of a valid entry, or kEmpty.
  static constexpr std::size_t kBuckets = 256;
  static constexpr std::uint8_t kEmpty = 0xFF;
  static_assert(kMaxCapacity * 4 <= kBuckets && kMaxCapacity < kEmpty);

  /// Fibonacci hash: the top 8 bits of vpn × 2^32/φ.
  static std::size_t home(std::uint32_t vpn) {
    return (vpn * 0x9E3779B1u) >> 24;
  }
  /// The bucket indexing `vpn`'s valid entry, or else the empty bucket that
  /// ends its probe sequence.
  std::size_t find(std::uint32_t vpn) const;
  /// Empty `bucket` by backward-shift deletion (no tombstones).
  void unindex(std::size_t bucket);

  std::vector<TlbEntry> entries_;
  std::size_t next_victim_ = 0;
  std::array<std::uint8_t, kBuckets> index_;
};

}  // namespace mercury::hw
