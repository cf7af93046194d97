#include "hw/tlb.hpp"

#include "util/assert.hpp"

namespace mercury::hw {

namespace {

TlbEntry make_entry(std::uint32_t vpn, const Pte& pte) {
  return TlbEntry{vpn,          pte.pfn(),      pte.writable(), pte.user(),
                  pte.global(), pte.vmm_only(), pte.dirty(),    true};
}

}  // namespace

Tlb::Tlb(std::size_t capacity) : entries_(capacity) {
  MERC_CHECK(capacity > 0 && capacity <= kMaxCapacity);
  index_.fill(kEmpty);
}

std::size_t Tlb::find(std::uint32_t vpn) const {
  std::size_t b = home(vpn);
  while (index_[b] != kEmpty && entries_[index_[b]].vpn != vpn)
    b = (b + 1) % kBuckets;
  return b;
}

void Tlb::unindex(std::size_t hole) {
  // Pull each later member of the probe run back into the hole when the
  // hole lies on its probe path (between its home bucket and where it sits).
  for (std::size_t b = (hole + 1) % kBuckets; index_[b] != kEmpty;
       b = (b + 1) % kBuckets) {
    const std::size_t from_home =
        (b - home(entries_[index_[b]].vpn)) % kBuckets;
    if (from_home >= (b - hole) % kBuckets) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = kEmpty;
}

std::optional<TlbEntry> Tlb::lookup(std::uint32_t vpn) const {
  const std::uint8_t slot = index_[find(vpn)];
  if (slot == kEmpty) return std::nullopt;
  return entries_[slot];
}

void Tlb::insert(std::uint32_t vpn, const Pte& pte) {
  // Replace an existing mapping for the same vpn in place if present.
  std::size_t b = find(vpn);
  if (index_[b] != kEmpty) {
    entries_[index_[b]] = make_entry(vpn, pte);
    return;
  }
  const std::size_t slot = next_victim_;
  next_victim_ = (next_victim_ + 1) % entries_.size();
  if (entries_[slot].valid) {
    unindex(find(entries_[slot].vpn));
    b = find(vpn);  // the shift may have opened a bucket earlier in the run
  }
  entries_[slot] = make_entry(vpn, pte);
  index_[b] = static_cast<std::uint8_t>(slot);
}

void Tlb::flush_all() {
  // Cheaper than unindexing each entry: re-index the global survivors.
  index_.fill(kEmpty);
  for (std::size_t s = 0; s < entries_.size(); ++s) {
    TlbEntry& e = entries_[s];
    if (!e.global) e.valid = false;
    else if (e.valid) index_[find(e.vpn)] = static_cast<std::uint8_t>(s);
  }
}

void Tlb::flush_global() {
  for (auto& e : entries_) e.valid = false;
  index_.fill(kEmpty);
}

void Tlb::flush_page(std::uint32_t vpn) {
  const std::size_t b = find(vpn);
  if (index_[b] == kEmpty) return;
  entries_[index_[b]].valid = false;
  unindex(b);
}

std::size_t Tlb::valid_entries() const {
  std::size_t n = 0;
  for (const auto& e : entries_)
    if (e.valid) ++n;
  return n;
}

}  // namespace mercury::hw
