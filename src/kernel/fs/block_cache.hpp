// Buffer/page cache over the block device: LRU with write-back.
//
// The cache tracks block identities and dirty state (file *content* is not
// semantically meaningful to any workload, so no bytes are stored); hits,
// misses and write-backs charge realistic costs through the caller.
//
// The LRU order is part of the cycle model: `evict_to_capacity` and
// `take_dirty` pick blocks in that order and the caller writes them in it,
// so it feeds the disk's seek charges. Entries live in one slot vector,
// linked into the LRU list by slot number; freed slots are recycled through
// a stack, and an open-addressing index maps a block to its slot. In steady
// state only the lists evict_to_capacity and take_dirty return allocate:
// the vectors grow to their high-water mark and stay there.
#pragma once

#include <cstdint>
#include <vector>

namespace mercury::kernel {

class BlockCache {
 public:
  explicit BlockCache(std::size_t capacity_blocks);

  /// Touch a block; returns true on hit (LRU position refreshed).
  bool lookup(std::uint64_t block);
  /// Insert after a miss (caller performed the disk read).
  void insert(std::uint64_t block, bool dirty);
  void mark_dirty(std::uint64_t block);
  bool is_cached(std::uint64_t block) const;
  bool is_dirty(std::uint64_t block) const;
  void clear_dirty(std::uint64_t block);
  /// Drop a block entirely (file deletion).
  void invalidate(std::uint64_t block);

  /// Blocks that must be written back to get under capacity (caller issues
  /// the device writes, then the entries become clean evictions).
  std::vector<std::uint64_t> evict_to_capacity();

  /// Up to `max` dirty blocks (oldest first) for periodic write-back; their
  /// dirty bits are cleared (caller writes them to the device).
  std::vector<std::uint64_t> take_dirty(std::size_t max);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t dirty_count() const { return dirty_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    std::uint64_t block = 0;
    std::uint32_t newer = kNil;  // toward the front (most recent)
    std::uint32_t older = kNil;  // toward the back (least recent)
    bool dirty = false;
  };

  /// Fibonacci hash: the top bits of block × 2^64/φ.
  std::size_t home(std::uint64_t block) const {
    return static_cast<std::size_t>((block * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// The bucket indexing `block`'s slot, or else the empty bucket that ends
  /// its probe sequence.
  std::size_t find(std::uint64_t block) const;
  /// The slot holding `block`, or kNil.
  std::uint32_t slot_of(std::uint64_t block) const {
    return index_[find(block)];
  }
  /// Empty `bucket` by backward-shift deletion (no tombstones).
  void unindex(std::size_t bucket);
  /// Double the index and re-insert every live slot.
  void grow_index();

  void unlink(std::uint32_t s);
  void push_front(std::uint32_t s);
  /// Move slot `s` to the front of the LRU list.
  void touch(std::uint32_t s);
  /// Cache `block` in a recycled or new slot at the front; `bucket` is the
  /// empty bucket find(block) returned.
  void add(std::size_t bucket, std::uint64_t block, bool dirty);
  /// Unindex, unlink and recycle slot `s` (indexed at `bucket`).
  void remove(std::size_t bucket, std::uint32_t s);

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;   // recycled slot numbers
  std::vector<std::uint32_t> index_;  // bucket -> slot, or kNil
  unsigned shift_;                    // 64 - log2(index_.size())
  std::uint32_t front_ = kNil;        // most recent
  std::uint32_t back_ = kNil;         // least recent
  std::size_t size_ = 0;
  std::size_t dirty_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mercury::kernel
