// Differential harness for warm re-attach (the retained page-info table +
// dirty-frame tracker fast path). The oracle is the cold rebuild itself:
// after every warm attach the harness forces a from-scratch rebuild of the
// *same* machine state (cold detach + cold attach with a quiesced workload)
// and compares the two tables shard by shard, entry by entry. Any divergence
// — a frame the tracker missed, a stale type carried over, a pin that did
// not fold into the dirty set — fails with the exact PFN and both entries.
//
// The seeded sweep (MERCURY_TEST_SEED replays any failure) runs randomized
// detach -> dirty-native-window -> warm-attach rounds across UP and SMP
// crew shapes, with workload writes, PT growth/shrink (mmap/munmap), frame
// frees/reallocs (task spawn/kill), and file traffic dirtying frames while
// the VMM is away.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dirty_tracker.hpp"
#include "core/invariants.hpp"
#include "core/mercury.hpp"
#include "kernel/syscalls.hpp"
#include "tests/test_seed.hpp"
#include "util/rng.hpp"
#include "vmm/page_info.hpp"

namespace mercury::testing {
namespace {

using core::ExecMode;
using core::Mercury;
using kernel::Sub;
using kernel::Sys;

constexpr hw::Cycles kBudget = 500 * hw::kCyclesPerMillisecond;

/// A machine with warm re-attach enabled and a mutator workload that
/// dirties frames only while `mutate` is set — so the harness can quiesce
/// the OS and snapshot two rebuilds of the *identical* machine state.
struct WarmRig {
  hw::Machine machine;
  Mercury m;
  util::Rng rng;
  bool mutate = false;
  std::uint64_t mutations = 0;

  WarmRig(std::uint64_t seed, std::size_t cpus, std::size_t crew,
          std::size_t dirty_capacity = 1 << 20)
      : machine([&] {
          hw::MachineConfig mc;
          mc.num_cpus = cpus;
          mc.mem_kb = 96 * 1024;
          return mc;
        }()),
        m(machine,
          [&] {
            core::MercuryConfig cfg;
            cfg.kernel_frames = (32ull * 1024 * 1024) / hw::kPageSize;
            cfg.switch_config.warm_reattach = true;
            cfg.switch_config.warm_dirty_capacity = dirty_capacity;
            cfg.switch_config.crew_workers = crew;
            return cfg;
          }()),
        rng(seed) {
    for (int i = 0; i < 3; ++i) spawn_mutator("mut" + std::to_string(i));
    m.kernel().run_for(2 * hw::kCyclesPerMillisecond);
  }

  void spawn_mutator(const std::string& name) {
    m.kernel().spawn(name, [this, name](Sys& s) -> Sub<void> {
      std::vector<std::pair<hw::VirtAddr, std::size_t>> regions;
      const int fd = s.open("/" + name, true);
      for (;;) {
        if (!mutate) {
          co_await s.sleep_us(200.0);
          continue;
        }
        const double pick = rng.uniform();
        if (pick < 0.40 && !regions.empty()) {
          // Plain workload writes: dirty mapped data frames.
          const auto& [va, pages] = regions[rng.below(regions.size())];
          s.touch_pages(va, pages, true);
        } else if (pick < 0.65 && regions.size() < 12) {
          // PT growth: a fresh mapping faulted in (new L1s may appear).
          const std::size_t pages = 1 + rng.below(8);
          const auto va = s.mmap(pages * hw::kPageSize, true);
          s.touch_pages(va, pages, true);
          regions.emplace_back(va, pages);
        } else if (!regions.empty() && (pick < 0.80 || regions.size() >= 12)) {
          // PT shrink + frame frees back to the pool.
          const std::size_t idx = rng.below(regions.size());
          s.munmap(regions[idx].first, regions[idx].second * hw::kPageSize);
          regions.erase(regions.begin() + idx);
        } else {
          // File traffic: FS frame grants + content writes. Rewind once the
          // file has a working set so FS allocation stays bounded.
          if (s.file_size("/" + name) > 128 * 1024) s.seek(fd, 0);
          co_await s.file_write(fd, 1024 + rng.below(4096));
        }
        ++mutations;
        co_await s.compute_us(20.0 + 60.0 * rng.uniform());
      }
    });
  }

  /// Let the mutators dirty state for a random slice of simulated time,
  /// then park them so machine state is frozen for the differential pair.
  void dirty_window() {
    mutate = true;
    m.kernel().run_for(hw::us_to_cycles(150.0 + 850.0 * rng.uniform()));
    // Frame free/realloc churn at task granularity: a short-lived task's
    // whole address space (PTs included) returns to the pool and may be
    // handed right back out.
    if (rng.chance(0.3)) {
      const kernel::Pid pid =
          m.kernel().spawn("churn", [](Sys& s) -> Sub<void> {
            const auto va = s.mmap(6 * hw::kPageSize, true);
            s.touch_pages(va, 6, true);
            for (;;) co_await s.compute_us(40.0);
          });
      m.kernel().run_for(hw::us_to_cycles(150.0));
      m.kernel().kill(pid);
      m.kernel().run_for(hw::us_to_cycles(150.0));
    }
    mutate = false;
    m.kernel().run_for(1 * hw::kCyclesPerMillisecond);  // quiesce
  }

  bool settle(ExecMode target) { return m.engine().switch_now(target, kBudget); }

  void expect_consistent(const std::string& ctx) {
    const core::InvariantReport report =
        core::check_machine_invariants(m.engine());
    ASSERT_TRUE(report.ok()) << ctx << "\n" << report.to_string();
    if (m.hypervisor().page_info().valid()) {
      const auto err = m.hypervisor().page_info().check_invariants();
      ASSERT_FALSE(err.has_value()) << ctx << ": " << *err;
    }
  }
};

std::string describe_entry(const vmm::PageInfo& pi) {
  return std::string("{owner=") + std::to_string(pi.owner) +
         " type=" + vmm::page_type_name(pi.type) +
         " type_count=" + std::to_string(pi.type_count) +
         " ref_count=" + std::to_string(pi.ref_count) +
         " pinned=" + (pi.pinned ? "1" : "0") + "}";
}

/// Shard-by-shard equality of a warm-rebuilt table against the cold oracle.
void expect_tables_equal(const std::vector<vmm::PageInfo>& warm,
                         const std::vector<vmm::PageInfo>& cold,
                         const std::string& ctx) {
  ASSERT_EQ(warm.size(), cold.size()) << ctx;
  constexpr std::size_t kPer = vmm::PageInfoTable::kFramesPerShard;
  const std::size_t shards = (warm.size() + kPer - 1) / kPer;
  for (std::size_t s = 0; s < shards; ++s) {
    std::size_t diffs = 0;
    std::string detail;
    const std::size_t end = std::min(warm.size(), (s + 1) * kPer);
    for (std::size_t pfn = s * kPer; pfn < end; ++pfn) {
      if (warm[pfn] == cold[pfn]) continue;
      if (++diffs <= 4)
        detail += "  pfn " + std::to_string(pfn) +
                  ": warm=" + describe_entry(warm[pfn]) +
                  " cold=" + describe_entry(cold[pfn]) + "\n";
    }
    EXPECT_EQ(diffs, 0u) << ctx << ": shard " << s << " diverges ("
                         << diffs << " frames):\n"
                         << detail;
  }
}

/// One differential round. Entered attached (virtual); leaves attached.
///
///   virtual dwell (pins/types churn) -> retaining detach -> dirty native
///   window -> WARM attach -> snapshot W -> cold detach+attach of the same
///   frozen state -> snapshot C -> assert W == C shard by shard.
void differential_round(WarmRig& rig, ExecMode virt_mode, int round,
                        bool expect_warm, std::uint64_t seed) {
  const std::string ctx =
      "seed=" + std::to_string(seed) + " round=" + std::to_string(round);
  SCOPED_TRACE(ctx);
  core::SwitchEngine& eng = rig.m.engine();
  vmm::Hypervisor& hv = rig.m.hypervisor();

  // Pin/type churn while the VMM enforces the table (hypercall path).
  rig.mutate = true;
  rig.m.kernel().run_for(hw::us_to_cycles(100.0 + 400.0 * rig.rng.uniform()));
  rig.mutate = false;
  rig.m.kernel().run_for(1 * hw::kCyclesPerMillisecond);

  // Retaining detach: opens the tracked window.
  eng.set_warm_reattach(true);
  ASSERT_TRUE(rig.settle(ExecMode::kNative)) << ctx;
  EXPECT_TRUE(hv.page_info().retained()) << ctx << ": detach did not retain";
  ASSERT_NE(eng.dirty_tracker(), nullptr) << ctx;
  EXPECT_TRUE(eng.dirty_tracker()->armed()) << ctx;

  rig.dirty_window();

  // Warm attach of the frozen state.
  const std::uint64_t warm_before = eng.stats().warm_attaches;
  const std::uint64_t epoch_before = hv.page_info().epoch();
  ASSERT_TRUE(rig.settle(virt_mode)) << ctx;
  rig.expect_consistent(ctx + " post-warm-attach");
  if (expect_warm) {
    EXPECT_EQ(eng.stats().warm_attaches, warm_before + 1)
        << ctx << ": eligible attach did not take the warm path";
    EXPECT_GT(hv.page_info().epoch(), epoch_before) << ctx;
  }
  const bool went_warm = eng.stats().warm_attaches > warm_before;
  EXPECT_FALSE(eng.dirty_tracker()->armed())
      << ctx << ": attach left the tracker armed";
  EXPECT_FALSE(hv.page_info().retained())
      << ctx << ": live table still claims retention";
  const std::vector<vmm::PageInfo> warm_table = hv.page_info().snapshot();
  const std::size_t carried = hv.page_info().shards_carried_over();

  // Cold oracle: rebuild the identical (still quiesced) state from scratch.
  eng.set_warm_reattach(false);
  ASSERT_TRUE(rig.settle(ExecMode::kNative)) << ctx;
  EXPECT_FALSE(hv.page_info().retained())
      << ctx << ": warm-off detach still retained the table";
  ASSERT_TRUE(rig.settle(virt_mode)) << ctx;
  rig.expect_consistent(ctx + " post-cold-attach");
  const std::vector<vmm::PageInfo> cold_table = hv.page_info().snapshot();

  expect_tables_equal(warm_table, cold_table, ctx);
  if (went_warm && eng.stats().last_dirty_frames <
                       rig.m.kernel().pool().owned_count()) {
    // A genuinely partial rebuild must have carried shards over.
    EXPECT_GT(carried, 0u) << ctx;
  }
  eng.set_warm_reattach(true);
}

void sweep(std::uint64_t seed, std::size_t cpus, std::size_t crew,
           int rounds, ExecMode virt_mode) {
  WarmRig rig(seed, cpus, crew);
  // First attach has no tracked window: must go cold, uncounted as fallback.
  ASSERT_TRUE(rig.settle(virt_mode));
  EXPECT_EQ(rig.m.engine().stats().warm_attaches, 0u);
  EXPECT_EQ(rig.m.engine().stats().warm_fallbacks, 0u);
  for (int round = 0; round < rounds; ++round) {
    differential_round(rig, virt_mode, round, /*expect_warm=*/true, seed);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure())
      return;
  }
  EXPECT_GT(rig.mutations, 0u) << "the mutator workload never ran";
  std::printf("warm sweep cpus=%zu crew=%zu: %d rounds, %llu mutations, "
              "%llu warm attaches\n",
              cpus, crew, rounds,
              static_cast<unsigned long long>(rig.mutations),
              static_cast<unsigned long long>(
                  rig.m.engine().stats().warm_attaches));
}

// --- the seeded differential sweep: >= 50 rounds across UP + SMP crews ---

TEST(WarmReattachDifferential, UpCrew0) {
  sweep(test_seed(0x3A9E0001ull), /*cpus=*/1, /*crew=*/0, /*rounds=*/14,
        ExecMode::kPartialVirtual);
}

TEST(WarmReattachDifferential, SmpCrew0) {
  sweep(test_seed(0x3A9E0002ull), /*cpus=*/2, /*crew=*/0, /*rounds=*/13,
        ExecMode::kPartialVirtual);
}

TEST(WarmReattachDifferential, SmpCrew1) {
  sweep(test_seed(0x3A9E0003ull), /*cpus=*/2, /*crew=*/1, /*rounds=*/13,
        ExecMode::kPartialVirtual);
}

TEST(WarmReattachDifferential, SmpCrew3FullVirtual) {
  sweep(test_seed(0x3A9E0004ull), /*cpus=*/4, /*crew=*/3, /*rounds=*/13,
        ExecMode::kFullVirtual);
}

// --- targeted edge cases ---

TEST(WarmReattach, TrackerOverflowFallsBackToColdAndStaysCorrect) {
  const std::uint64_t seed = test_seed(0x3A9E0005ull);
  // A tiny capacity: the first real dirty window must overflow.
  WarmRig rig(seed, /*cpus=*/1, /*crew=*/0, /*dirty_capacity=*/8);
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  ASSERT_TRUE(rig.settle(ExecMode::kNative));
  rig.dirty_window();
  ASSERT_NE(rig.m.engine().dirty_tracker(), nullptr);
  ASSERT_TRUE(rig.m.engine().dirty_tracker()->overflowed())
      << "dirty window stayed under 8 frames — widen the mutation window";

  const std::uint64_t fallbacks_before = rig.m.engine().stats().warm_fallbacks;
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  EXPECT_EQ(rig.m.engine().stats().warm_attaches, 0u);
  EXPECT_EQ(rig.m.engine().stats().warm_fallbacks, fallbacks_before + 1)
      << "overflowed window must be a counted fallback";
  rig.expect_consistent("post-overflow-fallback");

  // The fallback IS the cold path; its table must equal a second cold pass.
  const std::vector<vmm::PageInfo> fallback_table =
      rig.m.hypervisor().page_info().snapshot();
  rig.m.engine().set_warm_reattach(false);
  ASSERT_TRUE(rig.settle(ExecMode::kNative));
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  expect_tables_equal(fallback_table,
                      rig.m.hypervisor().page_info().snapshot(),
                      "overflow fallback");
}

TEST(WarmReattach, MidWindowDisableVoidsTheTrackedWindow) {
  const std::uint64_t seed = test_seed(0x3A9E0006ull);
  WarmRig rig(seed, /*cpus=*/1, /*crew=*/0);
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  ASSERT_TRUE(rig.settle(ExecMode::kNative));  // retaining detach
  ASSERT_TRUE(rig.m.engine().dirty_tracker()->armed());

  // Disable mid-window: writes after this are unobserved, so the window
  // must never feed a warm rebuild — even after re-enabling.
  rig.m.engine().set_warm_reattach(false);
  EXPECT_FALSE(rig.m.engine().dirty_tracker()->armed());
  rig.dirty_window();
  rig.m.engine().set_warm_reattach(true);

  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  EXPECT_EQ(rig.m.engine().stats().warm_attaches, 0u)
      << "a partially observed window fed a warm rebuild";
  rig.expect_consistent("post-disable-reattach");
}

TEST(WarmReattach, UnwrittenTablesSkipRevalidation) {
  // The warm attach revalidates only content-dirty tables: with a quiesced
  // native window, the per-PTE validation work must collapse to a small
  // fraction of the cold attach's full sweep.
  const std::uint64_t seed = test_seed(0x3A9E0007ull);
  WarmRig rig(seed, /*cpus=*/1, /*crew=*/0);
  vmm::Hypervisor& hv = rig.m.hypervisor();
  std::uint64_t v0 = hv.stats().pte_validations;
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));  // cold: full sweep
  const std::uint64_t cold_validations = hv.stats().pte_validations - v0;
  ASSERT_GT(cold_validations, 0u);

  ASSERT_TRUE(rig.settle(ExecMode::kNative));  // retaining detach
  v0 = hv.stats().pte_validations;
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));  // warm, quiet window
  EXPECT_EQ(rig.m.engine().stats().warm_attaches, 1u);
  const std::uint64_t warm_validations = hv.stats().pte_validations - v0;
  EXPECT_LT(warm_validations, cold_validations / 4)
      << "warm attach revalidated (almost) everything — the content filter "
         "is not being applied";
  rig.expect_consistent("post-skip-attach");
}

TEST(WarmReattach, TamperedTableWhileDetachedIsStillRevalidated) {
  // The flip side of the skip: a write into a page-table frame while the
  // VMM is away lands that frame in the content-dirty set, so the warm
  // attach must revalidate it and catch the bad entry. Heal mode turns the
  // catch into an observable repair instead of a domain crash.
  const std::uint64_t seed = test_seed(0x3A9E0008ull);
  WarmRig rig(seed, /*cpus=*/1, /*crew=*/0);
  // Give the mutators a moment to fault in mappings so task L1s exist.
  rig.mutate = true;
  rig.m.kernel().run_for(hw::us_to_cycles(500.0));
  rig.mutate = false;
  rig.m.kernel().run_for(1 * hw::kCyclesPerMillisecond);

  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  ASSERT_TRUE(rig.settle(ExecMode::kNative));  // retaining detach, armed

  // Pick a task L1 (not a kernel direct-map L1 — healing one of those would
  // punch a hole in the direct map) with an empty slot.
  vmm::Hypervisor& hv = rig.m.hypervisor();
  const auto& kernel_l1s = rig.m.kernel().kernel_l1_frames();
  hw::Pfn victim = 0;
  std::uint32_t slot = 0;
  bool found = false;
  for (const auto& [pfn, type] : hv.collect_tables(rig.m.kernel())) {
    if (type != vmm::PageType::kL1) continue;
    if (std::find(kernel_l1s.begin(), kernel_l1s.end(), pfn) !=
        kernel_l1s.end())
      continue;
    for (std::uint32_t e = 0; e < hw::kPtEntries && !found; ++e) {
      const hw::Pte pte{
          rig.machine.memory().read_u32(hw::addr_of(pfn) + e * 4)};
      if (!pte.present()) {
        victim = pfn;
        slot = e;
        found = true;
      }
    }
    if (found) break;
  }
  ASSERT_TRUE(found) << "no task L1 with a free slot to tamper with";

  // Tamper: a writable mapping of a hypervisor-reserved frame — exactly
  // the class of entry validation exists to reject.
  const hw::Pte bad = hw::make_pte(hv.reserved_first(), /*writable=*/true,
                                   /*user=*/false);
  rig.machine.memory().write_u32(hw::addr_of(victim) + slot * 4, bad.raw);

  hv.set_heal_mode(true);
  const std::uint64_t healed_before = hv.stats().entries_healed;
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  hv.set_heal_mode(false);
  EXPECT_EQ(rig.m.engine().stats().warm_attaches, 1u);
  EXPECT_GE(hv.stats().entries_healed, healed_before + 1)
      << "tampered table escaped warm revalidation";
  // The heal cleared the entry: frame contents match the pre-tamper state.
  EXPECT_EQ(rig.machine.memory().read_u32(hw::addr_of(victim) + slot * 4),
            0u);
  EXPECT_EQ(hv.stats().domains_crashed, 0u);
  rig.expect_consistent("post-tamper-heal");
}

TEST(WarmReattach, EagerTrackingSuppressesRetention) {
  hw::MachineConfig mc;
  mc.num_cpus = 1;
  mc.mem_kb = 96 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (32ull * 1024 * 1024) / hw::kPageSize;
  cfg.switch_config.warm_reattach = true;
  cfg.switch_config.eager_page_tracking = true;
  Mercury m(machine, cfg);
  m.kernel().run_for(2 * hw::kCyclesPerMillisecond);

  ASSERT_TRUE(m.engine().switch_now(ExecMode::kPartialVirtual, kBudget));
  ASSERT_TRUE(m.engine().switch_now(ExecMode::kNative, kBudget));
  // Eager keeps the table *live*; warm retention must stay out of the way.
  EXPECT_TRUE(m.hypervisor().page_info().valid());
  EXPECT_FALSE(m.hypervisor().page_info().retained());
  ASSERT_TRUE(m.engine().switch_now(ExecMode::kPartialVirtual, kBudget));
  EXPECT_EQ(m.engine().stats().warm_attaches, 0u);
  EXPECT_EQ(m.engine().stats().warm_fallbacks, 0u);
}

}  // namespace
}  // namespace mercury::testing
