// Page-info table, event channels, grant tables, rings.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "tests/test_seed.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "vmm/event_channel.hpp"
#include "vmm/grant_table.hpp"
#include "vmm/page_info.hpp"
#include "vmm/ring.hpp"

namespace mercury::vmm {
namespace {

TEST(PageInfoTableTest, StartsInvalid) {
  PageInfoTable t(100);
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t.size(), 100u);
}

TEST(PageInfoTableTest, InvariantsAcceptConsistentState) {
  PageInfoTable t(10);
  t.at(3) = PageInfo{0, PageType::kL1, 1, 1, true};
  t.at(4) = PageInfo{0, PageType::kWritable, 0, 1, false};
  t.set_valid(true);
  EXPECT_FALSE(t.check_invariants().has_value());
}

TEST(PageInfoTableTest, PinnedNonTableIsInconsistent) {
  PageInfoTable t(10);
  t.at(3) = PageInfo{0, PageType::kWritable, 1, 1, true};
  t.set_valid(true);
  auto err = t.check_invariants();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("pinned"), std::string::npos);
}

TEST(PageInfoTableTest, PinnedZeroCountIsInconsistent) {
  PageInfoTable t(10);
  t.at(3) = PageInfo{0, PageType::kL2, 0, 1, true};
  t.set_valid(true);
  EXPECT_TRUE(t.check_invariants().has_value());
}

TEST(PageInfoTableTest, TypedUnownedIsInconsistent) {
  PageInfoTable t(10);
  t.at(5) = PageInfo{kDomInvalid, PageType::kWritable, 0, 1, false};
  t.set_valid(true);
  EXPECT_TRUE(t.check_invariants().has_value());
}

TEST(PageInfoTableTest, InvalidateIsCheapAndMarksStale) {
  PageInfoTable t(1 << 20);  // a million frames
  t.set_valid(true);
  t.invalidate_all();  // must be O(1), not a million writes
  EXPECT_FALSE(t.valid());
  EXPECT_TRUE(t.check_invariants().has_value());
}

TEST(PageInfoTableTest, OutOfRangeIsInvariantError) {
  PageInfoTable t(10);
  EXPECT_THROW(t.at(10), util::InvariantError);
}

// The two-state table beside a flat model: fill() and mutable at() are
// applied to both, and after every step the table must read exactly like
// the model, with the per-shard bookkeeping a per-frame count gives.
class TwoStateTable {
 public:
  // Three whole shards and a partial fourth.
  static constexpr std::size_t kPer = PageInfoTable::kFramesPerShard;
  static constexpr std::size_t kFrames = 3 * kPer + 1234;
  static constexpr std::size_t kShards = 4;

  PageInfoTable table{kFrames};

  hw::Pfn first(std::size_t shard) const {
    return static_cast<hw::Pfn>(shard * kPer);
  }
  hw::Pfn end(std::size_t shard) const {
    return static_cast<hw::Pfn>(std::min((shard + 1) * kPer, kFrames));
  }
  static std::vector<hw::Pfn> range(hw::Pfn lo, hw::Pfn hi) {
    std::vector<hw::Pfn> v;
    for (hw::Pfn p = lo; p < hi; ++p) v.push_back(p);
    return v;
  }

  void fill(const std::vector<hw::Pfn>& frames, const PageInfo& value,
            PageInfoTable::Note note) {
    table.fill(frames, value, note);
    for (const hw::Pfn pfn : frames) book(pfn, value, note);
  }
  void fill(hw::Pfn first, std::size_t count, const PageInfo& value,
            PageInfoTable::Note note) {
    table.fill(first, count, value, note);
    for (hw::Pfn pfn = first; pfn < first + count; ++pfn)
      book(pfn, value, note);
  }
  void write(hw::Pfn pfn, std::uint32_t type_count) {
    table.at(pfn).type_count = type_count;
    model_[pfn].type_count = type_count;
  }
  void begin_epoch() {
    table.begin_rebuild_epoch();
    ++epoch_;
  }
  void reset_counters() {
    table.reset_shard_counters();
    rebuilt_.fill(0);
  }

  /// Empty when the table matches the model, else the first difference.
  std::string mismatch() const {
    const PageInfoTable& t = table;
    if (!(t.snapshot() == model_)) return "snapshot differs";
    for (hw::Pfn pfn = 0; pfn < kFrames; ++pfn)
      if (!(t.at(pfn) == model_[pfn])) return "at(" + std::to_string(pfn) + ")";
    std::size_t carried = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      if (t.shard_counters(s).rebuilt != rebuilt_[s])
        return "rebuilt of shard " + std::to_string(s);
      if (stamp_[s] < epoch_) ++carried;
    }
    if (t.shards_carried_over() != carried) return "shards_carried_over";
    return "";
  }

 private:
  /// One frame's fill, in the model.
  void book(hw::Pfn pfn, const PageInfo& value, PageInfoTable::Note note) {
    model_[pfn] = value;
    if (note == PageInfoTable::Note::kNone) return;
    ++rebuilt_[pfn / kPer];
    if (note == PageInfoTable::Note::kDirtyRebuilt) stamp_[pfn / kPer] = epoch_;
  }

  std::vector<PageInfo> model_ = std::vector<PageInfo>(kFrames);
  std::array<std::uint64_t, kShards> rebuilt_{};
  std::array<std::uint64_t, kShards> stamp_{};
  std::uint64_t epoch_ = 0;
};

TEST(PageInfoTableTest, AdjacentPiecesCoalesceUnlessAWriteComesBetween) {
  constexpr auto kRebuilt = PageInfoTable::Note::kRebuilt;
  const PageInfo ram{0, PageType::kWritable, 0, 1, false};
  TwoStateTable t;
  // Two crew pieces cut shard 1 in two, the upper one first.
  t.fill(t.range(t.first(1) + 1000, t.end(1)), ram, kRebuilt);
  EXPECT_EQ(t.table.uniform_value(1), nullptr);
  t.fill(t.range(t.first(1), t.first(1) + 1000), ram, kRebuilt);
  ASSERT_NE(t.table.uniform_value(1), nullptr);
  EXPECT_TRUE(*t.table.uniform_value(1) == ram);
  // Shard 2: one piece, then a write into it, then the adjacent piece.
  t.fill(t.range(t.first(2), t.first(2) + 1000), ram, kRebuilt);
  t.write(t.first(2) + 5, 7);
  t.fill(t.range(t.first(2) + 1000, t.end(2)), ram, kRebuilt);
  EXPECT_EQ(t.table.uniform_value(2), nullptr) << "the write broke the run";
  // The partial last shard turns uniform when its pieces cover it.
  t.fill(t.range(t.first(3), t.first(3) + 17), ram, kRebuilt);
  t.fill(t.range(t.first(3) + 17, t.end(3)), ram, kRebuilt);
  EXPECT_NE(t.table.uniform_value(3), nullptr);
  EXPECT_EQ(t.mismatch(), "");
}

TEST(PageInfoTableTest, RandomFillsAndWritesMatchAFlatModel) {
  using Note = PageInfoTable::Note;
  util::Rng rng(testing::test_seed(19));
  const PageInfo values[] = {
      {0, PageType::kWritable, 0, 1, false},
      {1, PageType::kWritable, 0, 1, false},
      {kDomHypervisor, PageType::kWritable, 0, 1, false},
  };
  TwoStateTable t;
  for (int step = 0; step < 600; ++step) {
    const std::size_t shard = rng.below(TwoStateTable::kShards);
    const hw::Pfn lo = t.first(shard);
    const hw::Pfn hi = t.end(shard);
    const hw::Pfn cut = static_cast<hw::Pfn>(rng.between(lo + 1, hi - 1));
    const PageInfo& v = values[rng.below(3)];
    const PageInfo& w = values[rng.below(3)];
    const Note note = static_cast<Note>(rng.below(3));
    std::string op;
    switch (rng.below(10)) {
      case 0:
        op = "whole shard";
        t.fill(t.range(lo, hi), v, note);
        break;
      case 1:
        op = "adjacent pieces, lower first";
        t.fill(t.range(lo, cut), v, note);
        t.fill(t.range(cut, hi), v, note);
        break;
      case 2:
        op = "adjacent pieces, upper first";
        t.fill(t.range(cut, hi), v, note);
        t.fill(t.range(lo, cut), v, note);
        break;
      case 3: {
        op = "overlapping pieces";
        const hw::Pfn back = static_cast<hw::Pfn>(rng.between(lo, cut));
        t.fill(t.range(lo, cut), v, note);
        t.fill(t.range(back, hi), v, note);
        break;
      }
      case 4:
        op = "two values";
        t.fill(t.range(lo, cut), v, note);
        t.fill(t.range(cut, hi), w, note);
        break;
      case 5: {
        op = "non-consecutive frames";
        std::vector<hw::Pfn> frames;
        for (int i = 0; i < 40; ++i)
          frames.push_back(static_cast<hw::Pfn>(rng.below(TwoStateTable::kFrames)));
        t.fill(frames, v, note);
        break;
      }
      case 6:
        op = "write between adjacent pieces";
        t.fill(t.range(lo, cut), v, note);
        t.write(static_cast<hw::Pfn>(rng.between(lo, cut - 1)),
                static_cast<std::uint32_t>(rng.below(3)));
        t.fill(t.range(cut, hi), v, note);
        break;
      case 7:
        op = "write";
        t.write(static_cast<hw::Pfn>(rng.between(lo, hi - 1)),
                static_cast<std::uint32_t>(rng.below(3)));
        break;
      case 8: {
        // A rebuild shard's range: from inside this shard to anywhere up
        // to the table's end, so it may cover whole shards and cut others.
        op = "range";
        const hw::Pfn from = static_cast<hw::Pfn>(rng.between(lo, hi - 1));
        t.fill(from, rng.between(1, TwoStateTable::kFrames - from), v, note);
        break;
      }
      default:
        // A detach that retains the table, and the next rebuild episode.
        op = "invalidate and retain";
        t.table.invalidate_all();
        t.table.set_retained(rng.chance(0.5));
        t.begin_epoch();
        if (rng.chance(0.5)) t.reset_counters();
        break;
    }
    ASSERT_EQ(t.mismatch(), "") << "step " << step << ": " << op << " on shard "
                                << shard << " cut at " << cut;
  }
}

TEST(EventChannelsTest, HandlerInvokedOnNotify) {
  EventChannels ec;
  hw::Cpu cpu(0);
  int fired = 0;
  const int port = ec.alloc(0, 1, [&](hw::Cpu&) { ++fired; });
  ec.notify(cpu, port);
  ec.notify(cpu, port);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ec.channel(port).notifications, 2u);
}

TEST(EventChannelsTest, HandlerlessChannelLatchesPending) {
  EventChannels ec;
  hw::Cpu cpu(0);
  const int port = ec.alloc(0, 1);
  EXPECT_FALSE(ec.pending(port));
  ec.notify(cpu, port);
  EXPECT_TRUE(ec.pending(port));
  EXPECT_TRUE(ec.take_pending(port));
  EXPECT_FALSE(ec.take_pending(port)) << "pending is edge, not level";
}

TEST(EventChannelsTest, NotifyChargesCycles) {
  EventChannels ec;
  hw::Cpu cpu(0);
  const int port = ec.alloc(0, 1);
  const hw::Cycles before = cpu.now();
  ec.notify(cpu, port);
  EXPECT_GT(cpu.now(), before);
}

TEST(EventChannelsTest, ClosedChannelRejectsNotify) {
  EventChannels ec;
  hw::Cpu cpu(0);
  const int port = ec.alloc(0, 1);
  ec.close(port);
  EXPECT_THROW(ec.notify(cpu, port), util::InvariantError);
}

TEST(EventChannelsTest, PortsAreReusedAfterClose) {
  EventChannels ec;
  const int a = ec.alloc(0, 1);
  ec.close(a);
  const int b = ec.alloc(2, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ec.open_channels(), 1u);
}

TEST(GrantTableTest, GrantMapUnmapEndLifecycle) {
  GrantTable gt;
  hw::Cpu cpu(0);
  const int ref = gt.grant(/*owner=*/1, /*frame=*/500, /*grantee=*/0, false);
  EXPECT_EQ(gt.map(cpu, 0, ref), 500u);
  gt.unmap(cpu, 0, ref);
  gt.end(1, ref);
  EXPECT_EQ(gt.active_grants(), 0u);
  EXPECT_EQ(gt.maps_performed(), 1u);
}

TEST(GrantTableTest, WrongGranteeRejected) {
  GrantTable gt;
  hw::Cpu cpu(0);
  const int ref = gt.grant(1, 500, 0, false);
  EXPECT_THROW(gt.map(cpu, /*grantee=*/2, ref), util::InvariantError);
}

TEST(GrantTableTest, EndWhileMappedRejected) {
  GrantTable gt;
  hw::Cpu cpu(0);
  const int ref = gt.grant(1, 500, 0, false);
  (void)gt.map(cpu, 0, ref);
  EXPECT_THROW(gt.end(1, ref), util::InvariantError);
}

TEST(GrantTableTest, WrongOwnerCannotEnd) {
  GrantTable gt;
  const int ref = gt.grant(1, 500, 0, false);
  EXPECT_THROW(gt.end(2, ref), util::InvariantError);
}

TEST(IoRingTest, RequestResponseFlow) {
  IoRing<int, int> ring(4);
  hw::Cpu cpu(0);
  EXPECT_TRUE(ring.push_request(cpu, 10));
  EXPECT_TRUE(ring.has_request());
  auto req = ring.pop_request(cpu);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(*req, 10);
  ring.push_response(cpu, 20);
  auto resp = ring.pop_response(cpu);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(*resp, 20);
}

TEST(IoRingTest, FullRingRejectsProduce) {
  IoRing<int, int> ring(2);
  hw::Cpu cpu(0);
  EXPECT_TRUE(ring.push_request(cpu, 1));
  EXPECT_TRUE(ring.push_request(cpu, 2));
  EXPECT_FALSE(ring.push_request(cpu, 3)) << "ring full";
  (void)ring.pop_request(cpu);
  EXPECT_TRUE(ring.push_request(cpu, 3));
}

}  // namespace
}  // namespace mercury::vmm
