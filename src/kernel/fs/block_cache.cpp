#include "kernel/fs/block_cache.hpp"

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mercury::kernel {

namespace {
constexpr unsigned kInitialIndexBits = 4;  // 16 buckets
}  // namespace

BlockCache::BlockCache(std::size_t capacity_blocks)
    : capacity_(capacity_blocks),
      index_(std::size_t{1} << kInitialIndexBits, kNil),
      shift_(64 - kInitialIndexBits) {
  MERC_CHECK(capacity_blocks > 0);
}

std::size_t BlockCache::find(std::uint64_t block) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t b = home(block);
  while (index_[b] != kNil && slots_[index_[b]].block != block)
    b = (b + 1) & mask;
  return b;
}

void BlockCache::unindex(std::size_t hole) {
  // Pull each later member of the probe run back into the hole when the
  // hole lies on its probe path (between its home bucket and where it sits).
  const std::size_t mask = index_.size() - 1;
  for (std::size_t b = (hole + 1) & mask; index_[b] != kNil;
       b = (b + 1) & mask) {
    const std::size_t from_home = (b - home(slots_[index_[b]].block)) & mask;
    if (from_home >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = kNil;
}

void BlockCache::grow_index() {
  index_.assign(index_.size() * 2, kNil);
  --shift_;
  for (std::uint32_t s = front_; s != kNil; s = slots_[s].older)
    index_[find(slots_[s].block)] = s;
}

void BlockCache::unlink(std::uint32_t s) {
  const Slot& e = slots_[s];
  if (e.newer != kNil) slots_[e.newer].older = e.older;
  else front_ = e.older;
  if (e.older != kNil) slots_[e.older].newer = e.newer;
  else back_ = e.newer;
}

void BlockCache::push_front(std::uint32_t s) {
  slots_[s].newer = kNil;
  slots_[s].older = front_;
  if (front_ != kNil) slots_[front_].newer = s;
  else back_ = s;
  front_ = s;
}

void BlockCache::touch(std::uint32_t s) {
  if (s == front_) return;
  unlink(s);
  push_front(s);
}

void BlockCache::add(std::size_t bucket, std::uint64_t block, bool dirty) {
  // Keep the index at most half full.
  if ((size_ + 1) * 2 > index_.size()) {
    grow_index();
    bucket = find(block);
  }
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].block = block;
  slots_[s].dirty = dirty;
  push_front(s);
  index_[bucket] = s;
  ++size_;
  if (dirty) ++dirty_;
}

void BlockCache::remove(std::size_t bucket, std::uint32_t s) {
  if (slots_[s].dirty) --dirty_;
  unindex(bucket);
  unlink(s);
  free_.push_back(s);
  --size_;
}

bool BlockCache::lookup(std::uint64_t block) {
  const std::uint32_t s = slot_of(block);
  if (s == kNil) {
    ++misses_;
    MERC_COUNT("fs.block_cache.misses");
    return false;
  }
  ++hits_;
  MERC_COUNT("fs.block_cache.hits");
  touch(s);
  return true;
}

void BlockCache::insert(std::uint64_t block, bool dirty) {
  const std::size_t b = find(block);
  const std::uint32_t s = index_[b];
  if (s == kNil) {
    add(b, block, dirty);
    return;
  }
  if (dirty && !slots_[s].dirty) {
    slots_[s].dirty = true;
    ++dirty_;
  }
  touch(s);
}

void BlockCache::mark_dirty(std::uint64_t block) {
  const std::size_t b = find(block);
  const std::uint32_t s = index_[b];
  if (s == kNil) {
    add(b, block, true);
    return;
  }
  if (!slots_[s].dirty) {
    slots_[s].dirty = true;
    ++dirty_;
  }
}

bool BlockCache::is_cached(std::uint64_t block) const {
  return slot_of(block) != kNil;
}

bool BlockCache::is_dirty(std::uint64_t block) const {
  const std::uint32_t s = slot_of(block);
  return s != kNil && slots_[s].dirty;
}

void BlockCache::clear_dirty(std::uint64_t block) {
  const std::uint32_t s = slot_of(block);
  if (s != kNil && slots_[s].dirty) {
    slots_[s].dirty = false;
    --dirty_;
  }
}

void BlockCache::invalidate(std::uint64_t block) {
  const std::size_t b = find(block);
  if (index_[b] != kNil) remove(b, index_[b]);
}

std::vector<std::uint64_t> BlockCache::evict_to_capacity() {
  std::vector<std::uint64_t> writeback;
  while (size_ > capacity_) {
    const std::uint32_t victim = back_;
    const std::uint64_t block = slots_[victim].block;
    if (slots_[victim].dirty) writeback.push_back(block);
    remove(find(block), victim);
  }
  return writeback;
}

std::vector<std::uint64_t> BlockCache::take_dirty(std::size_t max) {
  std::vector<std::uint64_t> out;
  // Oldest first: walk the LRU list from the back, and stop once no dirty
  // block is left.
  for (std::uint32_t s = back_; s != kNil && dirty_ > 0 && out.size() < max;
       s = slots_[s].newer) {
    if (slots_[s].dirty) {
      slots_[s].dirty = false;
      --dirty_;
      out.push_back(slots_[s].block);
    }
  }
  return out;
}

}  // namespace mercury::kernel
