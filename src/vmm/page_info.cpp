#include "vmm/page_info.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace mercury::vmm {

const char* page_type_name(PageType t) {
  switch (t) {
    case PageType::kNone: return "none";
    case PageType::kWritable: return "writable";
    case PageType::kL1: return "L1";
    case PageType::kL2: return "L2";
  }
  return "?";
}

PageInfoTable::PageInfoTable(std::size_t total_frames)
    : info_(total_frames),
      shards_((total_frames + kFramesPerShard - 1) / kFramesPerShard) {}

const PageInfoTable::ShardCounters& PageInfoTable::shard_counters(
    std::size_t shard) const {
  MERC_CHECK_MSG(shard < shards_.size(), "shard out of range: " << shard);
  return shards_[shard].counters;
}

std::uint64_t PageInfoTable::rebuilt_total() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.counters.rebuilt;
  return n;
}

std::uint64_t PageInfoTable::typed_total() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.counters.typed;
  return n;
}

void PageInfoTable::reset_shard_counters() {
  for (Shard& s : shards_) s.counters = ShardCounters{};
}

void PageInfoTable::out_of_range(hw::Pfn pfn) const {
  std::ostringstream msg;
  msg << "page info out of range: pfn " << pfn;
  util::invariant_failure("pfn < info_.size()", __FILE__, __LINE__, msg.str());
}

void PageInfoTable::note_rebuilt(std::span<const hw::Pfn> frames) {
  for_each_shard_stretch(
      frames, [](hw::Pfn pfn) { return pfn; },
      [](Shard& s, std::size_t n) { s.counters.rebuilt += n; });
}

void PageInfoTable::note_dirty_rebuilt(std::span<const hw::Pfn> frames) {
  for_each_shard_stretch(
      frames, [](hw::Pfn pfn) { return pfn; },
      [this](Shard& s, std::size_t n) {
        s.counters.rebuilt += n;
        s.dirty_epoch = epoch_;
      });
}

void PageInfoTable::note_typed(
    std::span<const std::pair<hw::Pfn, PageType>> tables) {
  for_each_shard_stretch(
      tables, [](const std::pair<hw::Pfn, PageType>& t) { return t.first; },
      [](Shard& s, std::size_t n) { s.counters.typed += n; });
}

void PageInfoTable::invalidate_all() {
  // Deliberately O(1): entries are considered garbage while invalid; the
  // rebuild pass re-initializes them. Contents are left in place on purpose
  // — a retaining detach (warm re-attach) reads them back as the base for
  // an incremental rebuild.
  valid_ = false;
}

std::size_t PageInfoTable::shards_carried_over() const {
  std::size_t n = 0;
  for (const Shard& s : shards_)
    if (s.dirty_epoch < epoch_) ++n;
  return n;
}

std::optional<std::string> PageInfoTable::check_invariants() const {
  if (valid_ && retained_)
    return "table claims to be both live (valid) and retained-stale";
  if (!valid_) return "table is invalid (VMM dormant)";
  // The message is built only for the frame that fails a check.
  for (std::size_t pfn = 0; pfn < info_.size(); ++pfn) {
    const PageInfo& pi = info_[pfn];
    if (pi.pinned && pi.type != PageType::kL1 && pi.type != PageType::kL2) {
      std::ostringstream err;
      err << "pfn " << pfn << " pinned but typed " << page_type_name(pi.type);
      return err.str();
    }
    if (pi.pinned && pi.type_count == 0) {
      std::ostringstream err;
      err << "pfn " << pfn << " pinned with zero type_count";
      return err.str();
    }
    if (pi.type != PageType::kNone && pi.owner == kDomInvalid) {
      std::ostringstream err;
      err << "pfn " << pfn << " typed " << page_type_name(pi.type)
          << " but unowned";
      return err.str();
    }
  }
  return std::nullopt;
}

}  // namespace mercury::vmm
