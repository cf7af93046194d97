// Dirty-frame tracking for warm re-attach (sibling of eager_tracker).
//
// The eager tracker (paper §5.1.2, alternative 1) keeps the whole page-info
// table fresh from native mode and pays a per-operation tax for it. This
// tracker is the pre-copy alternative from live migration applied to
// self-virtualization: while the VMM is detached it only *records which
// frames changed* — a bitmap set per store, the software analogue of a
// hardware dirty bit — and the next attach reconstructs just that set
// against the retained table instead of all of RAM.
//
// Cost model: note_dirty() charges zero simulated cycles (hardware sets
// dirty bits for free), so enabling the tracker perturbs no baseline and the
// obs-off cycle-identity gate holds trivially. Host cost is one branch and a
// bit set per simulated store.
//
// Overflow: the tracker has a capacity (default: total_frames / 8). Once
// more distinct frames are dirtied than that, a warm rebuild would no longer
// beat the cold one, so the tracker latches `overflowed` and the engine
// falls back to a full rebuild. The bitmap keeps exact membership either
// way; overflow only signals "not worth it", never corrupts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/pte.hpp"
#include "hw/types.hpp"

namespace mercury::core {

/// The two dirty views a warm attach consumes. `rebuild` is every frame
/// whose page-info entry may be stale (content writes, alloc-state changes,
/// and the detach-time fold of protected frames): those entries are
/// reconstructed. `content` is the subset whose *frame contents* were
/// actually written while detached: only page tables in that subset need
/// revalidation — an untouched table still holds exactly the entries the
/// VMM verified before it let go, so re-scanning its PTEs buys nothing.
struct WarmSet {
  std::vector<hw::Pfn> rebuild;
  std::vector<hw::Pfn> content;
};

class DirtyFrameTracker final : public hw::DirtySink {
 public:
  /// `capacity` bounds the dirty set a warm rebuild will accept; 0 picks the
  /// default of total_frames / 8 (beyond ~12% dirty the warm path stops
  /// paying for itself and a cold rebuild is simpler to reason about).
  explicit DirtyFrameTracker(std::size_t total_frames, std::size_t capacity = 0);

  /// Start a tracking window (called at detach when the page-info table is
  /// retained). Clears all recorded state and begins recording.
  void arm();

  /// Stop recording and drop the recorded set (called once an attach —
  /// warm or cold — has produced a fresh table, or when a detach rolls
  /// back and the machine stays virtual).
  void disarm();

  bool armed() const { return armed_; }
  bool overflowed() const { return overflowed_; }
  std::size_t dirty_count() const { return dirty_count_; }
  std::size_t capacity() const { return capacity_; }

  /// hw::DirtySink — called from PhysicalMemory stores and MMU A/D
  /// write-back: the frame's *contents* changed, so both its page-info
  /// entry and (if it is a page table) its validation are stale. Never
  /// charges simulated cycles.
  void note_dirty(hw::Pfn pfn) override;

  /// Accounting-only dirt: FramePool alloc-state changes and the engine's
  /// detach-time fold of protected frames. The page-info entry must be
  /// reconstructed, but the frame's bytes were not touched, so a table here
  /// keeps its pre-detach validation.
  void note_mapping(hw::Pfn pfn);

  /// Sink to hang on sources that report mapping/accounting changes rather
  /// than stores (the frame pool).
  hw::DirtySink& mapping_sink() { return mapping_adapter_; }

  /// The recorded sets, ascending. Valid while armed (the engine reads them
  /// at the start of a warm attach).
  std::vector<hw::Pfn> collect() const;
  std::vector<hw::Pfn> collect_content() const;

 private:
  struct MappingAdapter final : hw::DirtySink {
    explicit MappingAdapter(DirtyFrameTracker* t) : tracker(t) {}
    void note_dirty(hw::Pfn pfn) override { tracker->note_mapping(pfn); }
    DirtyFrameTracker* tracker;
  };

  static std::vector<hw::Pfn> collect_bits(const std::vector<std::uint64_t>& bits,
                                           std::size_t count);
  void set_bit(std::vector<std::uint64_t>& bits, hw::Pfn pfn, bool& fresh);

  std::vector<std::uint64_t> bits_;          // rebuild set (superset)
  std::vector<std::uint64_t> content_bits_;  // frames with byte writes
  std::size_t total_frames_;
  std::size_t capacity_;
  std::size_t dirty_count_ = 0;
  std::size_t content_count_ = 0;
  bool armed_ = false;
  bool overflowed_ = false;
  MappingAdapter mapping_adapter_{this};
};

}  // namespace mercury::core
