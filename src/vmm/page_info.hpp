// Per-frame owner/type/count accounting — the heart of Xen-style memory
// isolation, and the state Mercury must reconstruct when attaching the
// pre-cached VMM (paper §5.1.2: "recalculate the type and count information
// for all page frames ... accounts for the major time to commit a switch").
#pragma once

#include <cstdint>
#include <memory>
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

  /// A frame's entry, for writing. A uniform shard is materialized first
  /// (its one PageInfo copied into every entry), so writes through the
  /// reference land. The reference goes stale once a later fill() changes
  /// the shard's state.
  PageInfo& at(hw::Pfn pfn) {
    if (pfn >= size_) [[unlikely]] out_of_range(pfn);
    Shard& s = shards_[shard_of(pfn)];
    if (s.uniform) [[unlikely]] materialize(shard_of(pfn));
    // The caller may write anything: the shard's fill run is broken.
    s.run_lo = s.run_hi = 0;
    return s.entries[pfn % kFramesPerShard];
  }
  /// A frame's entry, by value: a uniform shard answers from its one
  /// PageInfo without reading the entries.
  PageInfo at(hw::Pfn pfn) const {
    if (pfn >= size_) [[unlikely]] out_of_range(pfn);
    const Shard& s = shards_[shard_of(pfn)];
    return s.uniform ? s.value : s.entries[pfn % kFramesPerShard];
  }
  std::size_t size() const { return size_; }

  // --- shards (parallel switch pipeline) ---
  //
  // The frame space is split into fixed-size shards, each with its own
  // cache-line-padded block: counters, dirty stamp and state. A shard is
  // *uniform* (one PageInfo stands for every frame and the per-frame
  // entries are not read) or *materialized* (the entries hold the frames).
  // Every shard starts uniform. Its entries are allocated the first time it
  // is materialized and kept from then on, so building a table costs one
  // step per shard, and the host holds entries (64 KB a shard) only for
  // shards that were ever materialized. Bulk writers go through fill(),
  // which makes a whole-shard stretch uniform in O(1); the attach's rebuild
  // of the kernel's frame range therefore costs one step per shard, not per
  // frame, on the host. Crew workers rebuild disjoint frame ranges, so the
  // entries they touch are disjoint; a shard the crew cuts in two has its
  // block written by both workers. That is safe because the host-side simulator
  // executes shards one at a time, which also makes the blocks exact
  // per-range telemetry.

  /// Frames per shard (16 MB of physical memory at 4 KB pages).
  static constexpr std::size_t kFramesPerShard = 4096;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(hw::Pfn pfn) const { return pfn / kFramesPerShard; }

  /// The PageInfo standing for every frame of `shard` when it is uniform,
  /// or nullptr when it is materialized. Stale after the shard's next write.
  const PageInfo* uniform_value(std::size_t shard) const;

  /// What a fill() books beside the entries: nothing (boot-time and
  /// reserved-region initialization), a rebuild (each shard's `rebuilt`
  /// counter), or a warm dirty-set rebuild (the counter, and the shard
  /// stamped with the current rebuild epoch as revalidated-this-attach;
  /// shards whose stamp lags the epoch carried every entry over from the
  /// retained table untouched).
  enum class Note : std::uint8_t { kNone, kRebuilt, kDirtyRebuilt };

  /// Set frames [first, first + count) to `value`, one stretch within a
  /// shard at a time. A stretch covering its whole shard makes the shard
  /// uniform in O(1). A partial stretch writes the entries (a no-op on a
  /// shard already uniform with `value`); adjacent or overlapping partial
  /// stretches of one value that together cover the shard make it uniform
  /// again, unless another write to the shard came in between.
  void fill(hw::Pfn first, std::size_t count, const PageInfo& value,
            Note note = Note::kNone);
  /// The same for every frame of `frames` (the warm dirty set), one range
  /// fill per run of consecutive frames.
  void fill(std::span<const hw::Pfn> frames, const PageInfo& value,
            Note note = Note::kNone);

  /// Per-shard accounting bumped by the adopt/release paths.
  struct ShardCounters {
    std::uint64_t rebuilt = 0;  // frames reset by the adopt-time rebuild
    std::uint64_t typed = 0;    // page-table frames typed + protected
  };
  const ShardCounters& shard_counters(std::size_t shard) const;
  /// Bump each shard's `typed` counter once per stretch of consecutive
  /// `tables` that fall in it.
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
  // invalidate_all() is O(1) and never wipes entry contents or shard
  // states, so a detach can leave the table "stale but retained": invalid
  // for enforcement, but a usable base for an incremental rebuild that
  // revalidates only the frames dirtied while native (a retained uniform
  // shard carries over as its one value). `retained` asserts that the
  // entries still describe the machine as of the last detach; any
  // ownership-level mutation while dormant (domain create/destroy,
  // migration remaps) poisons the retention and forces the next attach
  // down the cold path.

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

  /// Every frame's entry, uniform shards expanded (equivalence tests:
  /// eager tracking vs rebuild, warm vs cold).
  std::vector<PageInfo> snapshot() const;

 private:
  /// One cache line per shard: two workers bumping counters for different
  /// frame ranges never share a line (no false sharing on the hot rebuild).
  struct alignas(64) Shard {
    ShardCounters counters;
    std::uint64_t dirty_epoch = 0;  // last rebuild epoch that touched this shard
    // Uniform: `value` stands for every frame. Materialized: the entries
    // hold the frames, and the fill run — offsets [run_lo, run_hi) in the
    // shard — was written with `value` by fill() stretches and nothing else.
    PageInfo value;
    std::uint32_t run_lo = 0;
    std::uint32_t run_hi = 0;
    bool uniform = true;
    /// The shard's per-frame entries: null until the first materialize(),
    /// then kept (a later uniform spell leaves them unread, not freed).
    std::unique_ptr<PageInfo[]> entries;
  };

  /// Report an at() past the end (MERC_CHECK failure: throws).
  [[noreturn]] void out_of_range(hw::Pfn pfn) const;
  /// First frame of `shard` and one past its last.
  hw::Pfn shard_first(std::size_t shard) const;
  hw::Pfn shard_end(std::size_t shard) const;
  /// Copy a uniform shard's value into its entries, allocating them on the
  /// shard's first materialization; the run starts empty.
  void materialize(std::size_t shard);
  /// fill() of frames [lo, hi), all in `shard`.
  void fill_stretch(std::size_t shard, hw::Pfn lo, hw::Pfn hi,
                    const PageInfo& value);

  std::size_t size_;
  std::vector<Shard> shards_;
  bool valid_ = false;
  bool retained_ = false;
  std::uint64_t epoch_ = 0;
};

}  // namespace mercury::vmm
