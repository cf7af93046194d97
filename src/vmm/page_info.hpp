// Per-frame owner/type/count accounting — the heart of Xen-style memory
// isolation, and the state Mercury must reconstruct when attaching the
// pre-cached VMM (paper §5.1.2: "recalculate the type and count information
// for all page frames ... accounts for the major time to commit a switch").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hw/types.hpp"

namespace mercury::vmm {

using DomainId = std::int16_t;
inline constexpr DomainId kDomInvalid = -1;
inline constexpr DomainId kDomHypervisor = -2;

enum class PageType : std::uint8_t {
  kNone,      // untracked / free
  kWritable,  // plain RAM, guest-writable
  kL1,        // validated level-1 page table
  kL2,        // validated level-2 page table (page directory)
};

const char* page_type_name(PageType t);

struct PageInfo {
  DomainId owner = kDomInvalid;
  PageType type = PageType::kNone;
  std::uint32_t type_count = 0;  // references under this type (pins, CR3 loads)
  std::uint32_t ref_count = 0;   // general references (mappings)
  bool pinned = false;

  // Field-wise equality (not memcmp: the struct has padding) — the warm
  // re-attach differential harness compares tables entry by entry.
  friend constexpr bool operator==(const PageInfo&, const PageInfo&) = default;
};

class PageInfoTable {
 public:
  explicit PageInfoTable(std::size_t total_frames);

  // Inline, with the failure report out of line so the check stays a
  // compare and branch: the adopt and validate loops index once per frame.
  PageInfo& at(hw::Pfn pfn) {
    if (pfn >= info_.size()) [[unlikely]] out_of_range(pfn);
    return info_[pfn];
  }
  const PageInfo& at(hw::Pfn pfn) const {
    if (pfn >= info_.size()) [[unlikely]] out_of_range(pfn);
    return info_[pfn];
  }
  std::size_t size() const { return info_.size(); }

  // --- sharded internals (parallel switch pipeline) ---
  //
  // The frame space is split into fixed-size shards, each with its own
  // cache-line-padded accounting block. Crew workers rebuilding disjoint
  // frame ranges during an attach therefore never write the same line: the
  // per-frame PageInfo entries they touch are range-disjoint by
  // construction (the crew hands out non-overlapping ranges), and the
  // counters they bump live in their own shard's padded block. The padding
  // is what makes the concurrent-rebuild story safe without a lock per
  // update; the host-side simulator executes shards one at a time, so the
  // shard blocks double as exact per-range telemetry.

  /// Frames per shard (16 MB of physical memory at 4 KB pages).
  static constexpr std::size_t kFramesPerShard = 4096;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(hw::Pfn pfn) const { return pfn / kFramesPerShard; }

  /// Per-shard accounting bumped by the adopt/release paths.
  struct ShardCounters {
    std::uint64_t rebuilt = 0;  // frames reset by the adopt-time rebuild
    std::uint64_t typed = 0;    // page-table frames typed + protected
  };
  const ShardCounters& shard_counters(std::size_t shard) const;
  // The note_* calls take a run of frames and bump each shard's counter once
  // per stretch of consecutive frames that fall in it.
  void note_rebuilt(std::span<const hw::Pfn> frames);
  /// A warm (dirty-set) reconstruction touched these frames: count them as
  /// rebuilt and stamp their shards with the current rebuild epoch, marking
  /// each as revalidated-this-attach. Shards whose stamp lags the epoch
  /// carried every entry over from the retained table untouched.
  void note_dirty_rebuilt(std::span<const hw::Pfn> frames);
  void note_typed(std::span<const std::pair<hw::Pfn, PageType>> tables);
  std::uint64_t rebuilt_total() const;
  std::uint64_t typed_total() const;
  /// Zero every shard's counters (start of an adopt episode).
  void reset_shard_counters();

  /// Whether the table currently reflects reality. When the VMM is dormant
  /// (Mercury native mode, lazy tracking) the table is stale and must be
  /// rebuilt before enforcement resumes.
  bool valid() const { return valid_; }
  void set_valid(bool v) { valid_ = v; }

  /// Forget everything (cheap: used at VMM detach — the expensive direction
  /// is the rebuild, not the teardown).
  void invalidate_all();

  // --- warm re-attach retention ---
  //
  // invalidate_all() is O(1) and never wipes entry contents, so a detach
  // can leave the table "stale but retained": invalid for enforcement, but
  // a usable base for an incremental rebuild that revalidates only the
  // frames dirtied while native. `retained` asserts that the entries still
  // describe the machine as of the last detach; any ownership-level
  // mutation while dormant (domain create/destroy, migration remaps)
  // poisons the retention and forces the next attach down the cold path.

  bool retained() const { return retained_; }
  void set_retained(bool r) { retained_ = r; }
  /// Retained entries no longer describe the machine: next attach goes cold.
  void poison_retention() { retained_ = false; }

  /// Monotonic rebuild-episode counter. Bumped at the start of every adopt
  /// rebuild (cold or warm); per-shard dirty stamps are compared against it
  /// to tell revalidated shards from carried-over ones.
  std::uint64_t epoch() const { return epoch_; }
  void begin_rebuild_epoch() { ++epoch_; }

  /// Shards the last warm rebuild carried over untouched (stamp < epoch).
  std::size_t shards_carried_over() const;

  /// Structural self-check: every pinned table is typed as a table, counts
  /// are non-zero where pinned, owners set where typed. Returns an error
  /// description, or nullopt if consistent.
  std::optional<std::string> check_invariants() const;

  /// Snapshot for equivalence tests (eager tracking vs rebuild).
  std::vector<PageInfo> snapshot() const { return info_; }

 private:
  /// One cache line per shard: two workers bumping counters for different
  /// frame ranges never share a line (no false sharing on the hot rebuild).
  struct alignas(64) Shard {
    ShardCounters counters;
    std::uint64_t dirty_epoch = 0;  // last rebuild epoch that touched this shard
  };

  /// Report an at() past the end (MERC_CHECK failure: throws).
  [[noreturn]] void out_of_range(hw::Pfn pfn) const;

  /// Call `bump(shard, count)` once per stretch of consecutive `items`
  /// whose frames (`pfn_of(item)`) share a shard.
  template <typename T, typename PfnOf, typename Bump>
  void for_each_shard_stretch(std::span<const T> items, PfnOf pfn_of,
                              Bump bump) {
    for (std::size_t i = 0; i < items.size();) {
      const std::size_t shard = shard_of(pfn_of(items[i]));
      std::size_t j = i + 1;
      while (j < items.size() && shard_of(pfn_of(items[j])) == shard) ++j;
      bump(shards_[shard], j - i);
      i = j;
    }
  }

  std::vector<PageInfo> info_;
  std::vector<Shard> shards_;
  bool valid_ = false;
  bool retained_ = false;
  std::uint64_t epoch_ = 0;
};

}  // namespace mercury::vmm
