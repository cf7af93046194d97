// Filesystem: block cache behaviour (including a randomized check of the
// slot-vector cache against a std::list reference model), file ops,
// write-back, fsync.
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tests/kernel_fixture.hpp"
#include "tests/test_seed.hpp"
#include "util/rng.hpp"

namespace mercury::testing {
namespace {

using kernel::BlockCache;
using kernel::Sub;
using kernel::Sys;

TEST(BlockCacheTest, HitAfterInsert) {
  BlockCache c(8);
  EXPECT_FALSE(c.lookup(5));
  c.insert(5, false);
  EXPECT_TRUE(c.lookup(5));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(BlockCacheTest, LruEvictionOrder) {
  BlockCache c(2);
  c.insert(1, false);
  c.insert(2, false);
  (void)c.lookup(1);  // 2 is now LRU
  c.insert(3, false);
  (void)c.evict_to_capacity();
  EXPECT_TRUE(c.is_cached(1));
  EXPECT_FALSE(c.is_cached(2));
  EXPECT_TRUE(c.is_cached(3));
}

TEST(BlockCacheTest, DirtyEvictionReturnsWritebackList) {
  BlockCache c(2);
  c.insert(1, true);
  c.insert(2, false);
  c.insert(3, false);
  const auto wb = c.evict_to_capacity();
  ASSERT_EQ(wb.size(), 1u);
  EXPECT_EQ(wb[0], 1u);
  EXPECT_EQ(c.dirty_count(), 0u);
}

TEST(BlockCacheTest, TakeDirtyOldestFirstAndClears) {
  BlockCache c(8);
  c.insert(1, true);
  c.insert(2, true);
  c.insert(3, false);
  const auto d = c.take_dirty(10);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], 1u) << "oldest dirty first";
  EXPECT_EQ(c.dirty_count(), 0u);
}

TEST(BlockCacheTest, InvalidateDropsDirty) {
  BlockCache c(8);
  c.insert(4, true);
  c.invalidate(4);
  EXPECT_FALSE(c.is_cached(4));
  EXPECT_EQ(c.dirty_count(), 0u);
  EXPECT_TRUE(c.take_dirty(10).empty());
}

/// The block cache as a std::list in LRU order plus an unordered_map from
/// block to list position, as it was before the slot vector: the reference
/// model for BlockCache.
class ListModelCache {
 public:
  explicit ListModelCache(std::size_t capacity) : capacity_(capacity) {}

  bool lookup(std::uint64_t block) {
    auto it = map_.find(block);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    lru_.erase(it->second.lru_pos);
    lru_.push_front(block);
    it->second.lru_pos = lru_.begin();
    return true;
  }
  void insert(std::uint64_t block, bool dirty) {
    auto it = map_.find(block);
    if (it != map_.end()) {
      if (dirty && !it->second.dirty) ++dirty_;
      it->second.dirty = it->second.dirty || dirty;
      lru_.erase(it->second.lru_pos);
      lru_.push_front(block);
      it->second.lru_pos = lru_.begin();
      return;
    }
    lru_.push_front(block);
    map_[block] = Entry{lru_.begin(), dirty};
    if (dirty) ++dirty_;
  }
  void mark_dirty(std::uint64_t block) {
    auto it = map_.find(block);
    if (it == map_.end()) {
      insert(block, true);
      return;
    }
    if (!it->second.dirty) {
      it->second.dirty = true;
      ++dirty_;
    }
  }
  bool is_cached(std::uint64_t block) const { return map_.contains(block); }
  bool is_dirty(std::uint64_t block) const {
    auto it = map_.find(block);
    return it != map_.end() && it->second.dirty;
  }
  void clear_dirty(std::uint64_t block) {
    auto it = map_.find(block);
    if (it != map_.end() && it->second.dirty) {
      it->second.dirty = false;
      --dirty_;
    }
  }
  void invalidate(std::uint64_t block) {
    auto it = map_.find(block);
    if (it == map_.end()) return;
    if (it->second.dirty) --dirty_;
    lru_.erase(it->second.lru_pos);
    map_.erase(it);
  }
  std::vector<std::uint64_t> evict_to_capacity() {
    std::vector<std::uint64_t> writeback;
    while (map_.size() > capacity_) {
      const std::uint64_t victim = lru_.back();
      auto it = map_.find(victim);
      if (it->second.dirty) {
        writeback.push_back(victim);
        --dirty_;
      }
      lru_.pop_back();
      map_.erase(it);
    }
    return writeback;
  }
  std::vector<std::uint64_t> take_dirty(std::size_t max) {
    std::vector<std::uint64_t> out;
    for (auto it = lru_.rbegin(); it != lru_.rend() && out.size() < max; ++it) {
      auto e = map_.find(*it);
      if (e->second.dirty) {
        e->second.dirty = false;
        --dirty_;
        out.push_back(*it);
      }
    }
    return out;
  }

  std::size_t size() const { return map_.size(); }
  std::size_t dirty_count() const { return dirty_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::list<std::uint64_t>::iterator lru_pos;
    bool dirty = false;
  };

  std::size_t capacity_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, Entry> map_;
  std::size_t dirty_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// `n` multiples of 2^40 whose Fibonacci hashes (the cache index's hash)
/// share their top 10 bits, so they share one home bucket at every index
/// size up to 1 024 buckets and pile into one probe run.
std::vector<std::uint64_t> blocks_sharing_a_home(std::size_t n) {
  const auto top10 = [](std::uint64_t b) {
    return (b * 0x9E3779B97F4A7C15ull) >> 54;
  };
  std::vector<std::uint64_t> out;
  const std::uint64_t home = top10(std::uint64_t{1} << 40);
  for (std::uint64_t k = 1; out.size() < n; ++k)
    if (top10(k << 40) == home) out.push_back(k << 40);
  return out;
}

TEST(BlockCacheTest, IndexAgreesWithListModel) {
  const std::uint64_t seed = test_seed(22);
  std::uint64_t stream = 0;
  for (const std::size_t capacity : {1, 2, 7, 64}) {
    util::Rng pick(seed ^ capacity);
    const std::size_t pool_size = 3 * capacity + 8;
    std::vector<std::uint64_t> dense, sparse;
    for (std::uint64_t b = 0; b < pool_size; ++b) dense.push_back(b);
    for (std::size_t i = 0; i < pool_size; ++i) sparse.push_back(pick.next());
    const std::vector<std::uint64_t> one_home =
        blocks_sharing_a_home(pool_size);
    const std::pair<const char*, const std::vector<std::uint64_t>*> pools[] = {
        {"dense", &dense}, {"sparse", &sparse}, {"one-home", &one_home}};

    for (const auto& [pool_name, pool] : pools) {
      SCOPED_TRACE(std::string("capacity ") + std::to_string(capacity) +
                   ", pool " + pool_name);
      util::Rng rng(seed + ++stream);
      BlockCache cache(capacity);
      ListModelCache model(capacity);
      for (int op = 0; op < 2000; ++op) {
        const std::uint64_t block = (*pool)[rng.below(pool->size())];
        const std::uint64_t kind = rng.below(100);
        if (kind < 30) {
          ASSERT_EQ(cache.lookup(block), model.lookup(block)) << "op " << op;
        } else if (kind < 50) {
          const bool dirty = rng.chance(0.5);
          cache.insert(block, dirty);
          model.insert(block, dirty);
        } else if (kind < 65) {
          cache.mark_dirty(block);
          model.mark_dirty(block);
        } else if (kind < 72) {
          cache.clear_dirty(block);
          model.clear_dirty(block);
        } else if (kind < 80) {
          cache.invalidate(block);
          model.invalidate(block);
        } else if (kind < 93) {
          ASSERT_EQ(cache.evict_to_capacity(), model.evict_to_capacity())
              << "op " << op;
        } else {
          const std::size_t max = rng.below(capacity + 3);
          ASSERT_EQ(cache.take_dirty(max), model.take_dirty(max))
              << "op " << op;
        }
        ASSERT_EQ(cache.size(), model.size()) << "op " << op;
        ASSERT_EQ(cache.dirty_count(), model.dirty_count()) << "op " << op;
        ASSERT_EQ(cache.hits(), model.hits()) << "op " << op;
        ASSERT_EQ(cache.misses(), model.misses()) << "op " << op;
        for (const std::uint64_t b : *pool) {
          ASSERT_EQ(cache.is_cached(b), model.is_cached(b))
              << "op " << op << ", block " << b;
          ASSERT_EQ(cache.is_dirty(b), model.is_dirty(b))
              << "op " << op << ", block " << b;
        }
      }
    }
  }
}

using FsTest = KernelFixture;

TEST_F(FsTest, CreateWriteReadBack) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const int fd = s.open("/dir/file.dat", true);
    EXPECT_GE(fd, 0);
    const std::size_t w = co_await s.file_write(fd, 10000);
    EXPECT_EQ(w, 10000u);
    EXPECT_EQ(s.file_size("/dir/file.dat"), 10000);
    s.seek(fd, 0);
    const std::size_t r = co_await s.file_read(fd, 20000);
    EXPECT_EQ(r, 10000u) << "read clamps at EOF";
  }));
}

TEST_F(FsTest, OpenWithoutCreateFails) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    EXPECT_EQ(s.open("/missing", false), -1);
    co_return;
  }));
}

TEST_F(FsTest, UnlinkRemovesAndFreesBlocks) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const int fd = s.open("/victim", true);
    co_await s.file_write(fd, 64 * 1024);
    s.close(fd);
    EXPECT_TRUE(s.stat("/victim"));
    EXPECT_TRUE(s.unlink("/victim"));
    EXPECT_FALSE(s.stat("/victim"));
    EXPECT_FALSE(s.unlink("/victim")) << "double unlink";
    EXPECT_EQ(s.file_size("/victim"), -1);
  }));
}

TEST_F(FsTest, UnlinkReleasesTheBlockList) {
  // The inode outlives its file (its id picks a metadata block), so unlink
  // must hand the block list's storage back, not just empty it.
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const int fd = s.open("/released", true);
    co_await s.file_write(fd, 64 * 1024);
    s.close(fd);
    kernel::MiniFs& fs = s.kernel().fs();
    const kernel::Inode* ino = fs.inode(fs.open(s.cpu(), "/released", false));
    EXPECT_NE(ino, nullptr);
    if (ino == nullptr) co_return;
    EXPECT_EQ(ino->blocks.size(), 16u);
    EXPECT_TRUE(s.unlink("/released"));
    EXPECT_EQ(ino->blocks.capacity(), 0u);
  }));
}

TEST_F(FsTest, MkdirAndStat) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    EXPECT_TRUE(s.mkdir("/a/b"));
    EXPECT_FALSE(s.mkdir("/a/b")) << "mkdir of existing dir";
    EXPECT_TRUE(s.stat("/a/b"));
    co_return;
  }));
}

TEST_F(FsTest, SparseWriteExtendsFile) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const int fd = s.open("/sparse", true);
    s.seek(fd, 1'000'000);
    co_await s.file_write(fd, 100);
    EXPECT_EQ(s.file_size("/sparse"), 1'000'100);
  }));
}

TEST_F(FsTest, FsyncWritesDirtyBlocksToDisk) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const auto writes_before = s.kernel().machine().disk().writes();
    const int fd = s.open("/durable", true);
    co_await s.file_write(fd, 128 * 1024);
    // Buffered: nothing on disk yet (cache is large).
    EXPECT_EQ(s.kernel().machine().disk().writes(), writes_before);
    s.fsync(fd);
    EXPECT_GE(s.kernel().machine().disk().writes(), writes_before + 32);
    // Second fsync with nothing dirty is cheap.
    const auto w2 = s.kernel().machine().disk().writes();
    s.fsync(fd);
    EXPECT_EQ(s.kernel().machine().disk().writes(), w2);
  }));
}

TEST_F(FsTest, ColdReadHitsDiskWarmReadDoesNot) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const int fd = s.open("/cold", true);
    co_await s.file_write(fd, 32 * 1024);
    s.fsync(fd);
    // Evict by invalidating the cache through unlink+recreate? Simpler:
    // read a fresh kernel... here we at least verify warm reads are free.
    const auto reads_before = s.kernel().machine().disk().reads();
    s.seek(fd, 0);
    co_await s.file_read(fd, 32 * 1024);
    EXPECT_EQ(s.kernel().machine().disk().reads(), reads_before)
        << "warm read must be served from the cache";
  }));
}

TEST_F(FsTest, WritebackSomeDrainsDirty) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const int fd = s.open("/wb", true);
    co_await s.file_write(fd, 64 * 1024);
    auto& fs = s.kernel().fs();
    EXPECT_GT(fs.cache().dirty_count(), 0u);
    const auto disk_before = s.kernel().machine().disk().writes();
    fs.writeback_some(s.cpu(), 1000);
    EXPECT_EQ(fs.cache().dirty_count(), 0u);
    EXPECT_GT(s.kernel().machine().disk().writes(), disk_before);
  }));
}

TEST_F(FsTest, StatsTrackTraffic) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const int fd = s.open("/stats", true);
    co_await s.file_write(fd, 5000);
    s.seek(fd, 0);
    co_await s.file_read(fd, 5000);
    const auto& st = s.kernel().fs().stats();
    EXPECT_GE(st.bytes_written, 5000u);
    EXPECT_GE(st.bytes_read, 5000u);
    EXPECT_GE(st.creates, 1u);
  }));
}

TEST_F(FsTest, DeepPathsCostMoreThanShallow) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const hw::Cycles t0 = s.cpu().now();
    s.stat("/a");
    const hw::Cycles shallow = s.cpu().now() - t0;
    const hw::Cycles t1 = s.cpu().now();
    s.stat("/a/b/c/d/e/f/g/h");
    const hw::Cycles deep = s.cpu().now() - t1;
    EXPECT_GT(deep, shallow);
    co_return;
  }));
}

}  // namespace
}  // namespace mercury::testing
