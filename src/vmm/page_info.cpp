#include "vmm/page_info.hpp"

#include <algorithm>
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
    : size_(total_frames),
      shards_((total_frames + kFramesPerShard - 1) / kFramesPerShard) {}

hw::Pfn PageInfoTable::shard_first(std::size_t shard) const {
  return static_cast<hw::Pfn>(shard * kFramesPerShard);
}

hw::Pfn PageInfoTable::shard_end(std::size_t shard) const {
  return static_cast<hw::Pfn>(
      std::min((shard + 1) * kFramesPerShard, size_));
}

const PageInfo* PageInfoTable::uniform_value(std::size_t shard) const {
  MERC_CHECK_MSG(shard < shards_.size(), "shard out of range: " << shard);
  const Shard& s = shards_[shard];
  return s.uniform ? &s.value : nullptr;
}

void PageInfoTable::materialize(std::size_t shard) {
  Shard& s = shards_[shard];
  const std::size_t n = shard_end(shard) - shard_first(shard);
  if (!s.entries) s.entries = std::make_unique_for_overwrite<PageInfo[]>(n);
  std::fill_n(s.entries.get(), n, s.value);
  s.uniform = false;
  s.run_lo = s.run_hi = 0;
}

void PageInfoTable::fill_stretch(std::size_t shard, hw::Pfn lo, hw::Pfn hi,
                                 const PageInfo& value) {
  Shard& s = shards_[shard];
  const hw::Pfn first = shard_first(shard);
  const hw::Pfn end = shard_end(shard);
  if (lo == first && hi == end) {
    s.uniform = true;
    s.value = value;
    return;
  }
  if (s.uniform) {
    if (s.value == value) return;
    materialize(shard);
  }
  std::fill(s.entries.get() + (lo - first), s.entries.get() + (hi - first),
            value);
  // Extend the fill run when this stretch touches or overlaps it with the
  // same value: every frame of the union then holds `value`.
  const auto rlo = static_cast<std::uint32_t>(lo - first);
  const auto rhi = static_cast<std::uint32_t>(hi - first);
  if (s.run_lo < s.run_hi && s.value == value && rlo <= s.run_hi &&
      rhi >= s.run_lo) {
    s.run_lo = std::min(s.run_lo, rlo);
    s.run_hi = std::max(s.run_hi, rhi);
  } else {
    s.value = value;
    s.run_lo = rlo;
    s.run_hi = rhi;
  }
  if (s.run_lo == 0 && s.run_hi == end - first) s.uniform = true;
}

void PageInfoTable::fill(std::span<const hw::Pfn> frames, const PageInfo& value,
                         Note note) {
  for (std::size_t i = 0; i < frames.size();) {
    const hw::Pfn lo = frames[i];
    std::size_t j = i + 1;
    while (j < frames.size() && frames[j] == lo + (j - i)) ++j;
    fill(lo, j - i, value, note);
    i = j;
  }
}

void PageInfoTable::fill(hw::Pfn first, std::size_t count, const PageInfo& value,
                         Note note) {
  if (count == 0) return;
  const std::size_t end = first + count;
  if (end > size_) [[unlikely]] out_of_range(static_cast<hw::Pfn>(end - 1));
  for (hw::Pfn lo = first; lo < end;) {
    const std::size_t shard = shard_of(lo);
    const hw::Pfn hi = std::min(shard_end(shard), static_cast<hw::Pfn>(end));
    fill_stretch(shard, lo, hi, value);
    Shard& s = shards_[shard];
    if (note != Note::kNone) s.counters.rebuilt += hi - lo;
    if (note == Note::kDirtyRebuilt) s.dirty_epoch = epoch_;
    lo = hi;
  }
}

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
  util::invariant_failure("pfn < size()", __FILE__, __LINE__, msg.str());
}

void PageInfoTable::note_typed(
    std::span<const std::pair<hw::Pfn, PageType>> tables) {
  for (std::size_t i = 0; i < tables.size();) {
    const std::size_t shard = shard_of(tables[i].first);
    std::size_t j = i + 1;
    while (j < tables.size() && shard_of(tables[j].first) == shard) ++j;
    shards_[shard].counters.typed += j - i;
    i = j;
  }
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

std::vector<PageInfo> PageInfoTable::snapshot() const {
  std::vector<PageInfo> out(size_);
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    const Shard& s = shards_[shard];
    const auto first = out.begin() + shard_first(shard);
    const auto end = out.begin() + shard_end(shard);
    if (s.uniform)
      std::fill(first, end, s.value);
    else
      std::copy_n(s.entries.get(), end - first, first);
  }
  return out;
}

namespace {

/// The three structural rules, as one predicate cheap enough for the
/// per-frame loop.
bool consistent(const PageInfo& pi) {
  const bool table = pi.type == PageType::kL1 || pi.type == PageType::kL2;
  if (pi.pinned && (!table || pi.type_count == 0)) return false;
  return pi.type == PageType::kNone || pi.owner != kDomInvalid;
}

/// Which rule `pi` (the entry of `pfn`) breaks, for a frame that is not
/// consistent().
std::string violation(std::size_t pfn, const PageInfo& pi) {
  std::ostringstream err;
  err << "pfn " << pfn;
  if (pi.pinned && pi.type != PageType::kL1 && pi.type != PageType::kL2)
    err << " pinned but typed " << page_type_name(pi.type);
  else if (pi.pinned && pi.type_count == 0)
    err << " pinned with zero type_count";
  else
    err << " typed " << page_type_name(pi.type) << " but unowned";
  return err.str();
}

}  // namespace

std::optional<std::string> PageInfoTable::check_invariants() const {
  if (valid_ && retained_)
    return "table claims to be both live (valid) and retained-stale";
  if (!valid_) return "table is invalid (VMM dormant)";
  // A uniform shard is checked once, as its first frame; the message is
  // built only for the frame that fails.
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    const Shard& s = shards_[shard];
    if (s.uniform) {
      if (!consistent(s.value)) return violation(shard_first(shard), s.value);
      continue;
    }
    const hw::Pfn first = shard_first(shard);
    const hw::Pfn end = shard_end(shard);
    for (hw::Pfn pfn = first; pfn < end; ++pfn)
      if (!consistent(s.entries[pfn - first])) [[unlikely]]
        return violation(pfn, s.entries[pfn - first]);
  }
  return std::nullopt;
}

}  // namespace mercury::vmm
