// Hypervisor: hypercall validation, isolation enforcement, adopt/release,
// split-driver backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tests/kernel_fixture.hpp"
#include "kernel/layout.hpp"
#include "pv/costs.hpp"
#include "vmm/hypervisor.hpp"
#include "workloads/configs.hpp"

namespace mercury::testing {
namespace {

using kernel::Sub;
using kernel::Sys;
using vmm::DomainId;
using vmm::PageType;
using workloads::Sut;
using workloads::SutParams;
using workloads::SystemId;

SutParams small() {
  SutParams p;
  p.machine_mem_kb = 256 * 1024;
  p.kernel_mem_kb = 96 * 1024;
  p.domu_mem_kb = 64 * 1024;
  return p;
}

class HvTest : public ::testing::Test {
 protected:
  // An X-0-style always-on stack gives us a live hypervisor + dom0.
  HvTest() : sut(Sut::create(SystemId::kX0, small())) {}

  vmm::Hypervisor& hv() { return *sut->hypervisor(); }
  kernel::Kernel& k() { return sut->kernel(); }
  hw::Cpu& cpu() { return sut->machine().cpu(0); }

  std::unique_ptr<Sut> sut;
};

TEST_F(HvTest, BootLeavesConsistentPageInfo) {
  EXPECT_TRUE(hv().active());
  const auto err = hv().page_info().check_invariants();
  EXPECT_FALSE(err.has_value()) << *err;
  // Kernel page tables are typed and pinned.
  for (const hw::Pfn l1 : k().kernel_l1_frames()) {
    EXPECT_EQ(hv().page_info().at(l1).type, PageType::kL1);
    EXPECT_TRUE(hv().page_info().at(l1).pinned);
  }
  EXPECT_EQ(hv().page_info().at(k().kernel_pd()).type, PageType::kL2);
}

TEST_F(HvTest, GuestWorkloadsKeepDomainAlive) {
  bool done = false;
  k().spawn("guest-work", [&](Sys& s) -> Sub<void> {
    const auto va = s.mmap(32 * hw::kPageSize, true);
    s.touch_pages(va, 32, true);
    const auto child = s.fork([](Sys& cs) -> Sub<void> {
      cs.exit(0);
      co_return;
    });
    co_await s.wait_pid(child);
    s.munmap(va, 32 * hw::kPageSize);
    done = true;
  });
  EXPECT_TRUE(k().run_until([&] { return done; },
                            200 * hw::kCyclesPerMillisecond));
  EXPECT_EQ(hv().stats().domains_crashed, 0u);
  EXPECT_GT(hv().stats().hypercalls, 0u);
  EXPECT_GT(hv().stats().emulated_pte_writes, 0u);
  EXPECT_GT(hv().stats().pins, 0u);
}

TEST_F(HvTest, MappingHypervisorFrameCrashesDomain) {
  // A rogue PTE pointing into the VMM's reserved region must be rejected.
  const DomainId dom = 0;
  kernel::Task* t = nullptr;
  k().spawn("rogue", [](Sys& s) -> Sub<void> {
    const auto va = s.mmap(hw::kPageSize, true);
    s.touch_pages(va, 1, true);
    for (;;) co_await s.sleep_us(10'000.0);
  });
  k().run_for(5 * hw::kCyclesPerMillisecond);
  k().for_each_task([&](kernel::Task& task) { t = &task; });
  ASSERT_NE(t, nullptr);
  const hw::Pfn l1 = t->aspace->page_table_frames().back();
  hw::Pte evil = hw::make_pte(hv().reserved_first(), true, true);
  hv().hc_pte_write_emulate(cpu(), dom, hw::addr_of(l1) + 8, evil);
  EXPECT_TRUE(hv().domain(dom).crashed);
  EXPECT_NE(hv().domain(dom).crash_reason.find("hypervisor"),
            std::string::npos);
}

TEST_F(HvTest, WritableMappingOfPageTableRejected) {
  const DomainId dom = 0;
  const hw::Pfn some_l1 = k().kernel_l1_frames().front();
  const hw::Pfn victim_pt = k().kernel_l1_frames().back();
  // Try to install a *writable* user mapping of a page-table frame.
  hw::Pte evil = hw::make_pte(victim_pt, /*writable=*/true, true);
  hv().hc_pte_write_emulate(cpu(), dom, hw::addr_of(some_l1) + 16, evil);
  EXPECT_TRUE(hv().domain(dom).crashed);
  // Read-only mappings of page tables are fine (direct paging!).
  auto sut2 = Sut::create(SystemId::kX0, small());
  vmm::Hypervisor& hv2 = *sut2->hypervisor();
  hw::Pte ok = hw::make_pte(sut2->kernel().kernel_l1_frames().back(),
                            /*writable=*/false, true);
  hv2.hc_pte_write_emulate(sut2->machine().cpu(0), 0,
                           hw::addr_of(sut2->kernel().kernel_l1_frames().front()) + 16,
                           ok);
  EXPECT_FALSE(hv2.domain(0).crashed);
}

TEST_F(HvTest, UpdateOutsidePageTableRejected) {
  // Writing a "PTE" into a plain RAM frame is not a legal mmu_update.
  hw::Pfn plain = 0;
  ASSERT_TRUE(k().pool().alloc(plain));
  pv::PteUpdate u{hw::addr_of(plain), hw::make_pte(plain, false, true)};
  hv().hc_mmu_update(cpu(), 0, std::span<const pv::PteUpdate>(&u, 1));
  EXPECT_TRUE(hv().domain(0).crashed);
}

TEST_F(HvTest, Cr3OfUnpinnedFrameRejected) {
  hw::Pfn plain = 0;
  ASSERT_TRUE(k().pool().alloc(plain));
  hv().hc_write_cr3(cpu(), 0, plain);
  EXPECT_TRUE(hv().domain(0).crashed);
}

TEST_F(HvTest, PinOfForeignFrameRejected) {
  // The hypervisor's own frames are not pinnable by a guest.
  hv().hc_pin_table(cpu(), 0, hv().reserved_first(), pv::PtLevel::kL1);
  EXPECT_TRUE(hv().domain(0).crashed);
}

TEST_F(HvTest, TamperedVmmPdeDetectedAtValidation) {
  // Rewrite a reserved PDE in the kernel PD, then revalidate.
  const hw::PhysAddr pde_addr =
      hw::addr_of(k().kernel_pd()) + hw::pde_index(kernel::kVmmBase) * 4;
  sut->machine().memory().write_u32(pde_addr,
                                    hw::make_pte(1234, true, true).raw);
  std::size_t present = 0;
  EXPECT_FALSE(
      hv().validate_l2(cpu(), hv().domain(0), k().kernel_pd(), 0, &present));
  EXPECT_TRUE(hv().domain(0).crashed);
}

TEST_F(HvTest, PageTablesAreHardwareProtectedUnderVmm) {
  // Direct writes to a pinned page table must fault (RO in the direct map):
  // this is what forces the trap-&-emulate path.
  const hw::Pfn l1 = k().kernel_l1_frames().front();
  const hw::VirtAddr kva = k().kva_of_frame(l1);
  auto& mmu = sut->machine().mmu();
  hw::Cpu& c = cpu();
  c.set_cpl(hw::Ring::kRing1);  // deprivileged guest kernel
  hw::PageFault pf;
  c.tlb().flush_global();
  EXPECT_FALSE(mmu.translate(c, kva, hw::Access::kWrite, &pf).has_value())
      << "pinned page table must be read-only for the guest";
  EXPECT_TRUE(mmu.translate(c, kva, hw::Access::kRead, &pf).has_value())
      << "direct paging grants read access";
  c.set_cpl(hw::Ring::kRing0);
}

TEST_F(HvTest, DomUSplitIoGoesThroughBackend) {
  auto xu = Sut::create(SystemId::kXU, small());
  bool done = false;
  xu->kernel().spawn("io", [&](Sys& s) -> Sub<void> {
    const int fd = s.open("/f", true);
    co_await s.file_write(fd, 256 * 1024);
    s.fsync(fd);
    done = true;
  });
  EXPECT_TRUE(xu->kernel().run_until([&] { return done; },
                                     500 * hw::kCyclesPerMillisecond));
  vmm::Hypervisor& hvx = *xu->hypervisor();
  EXPECT_GT(hvx.blk_backend().requests_served(), 0u);
  EXPECT_GT(hvx.grant_table().maps_performed(), 0u);
  EXPECT_GT(hvx.event_channels().total_notifications(), 0u);
}

TEST_F(HvTest, DomUFlushIsBarrierNotDurability) {
  auto xu = Sut::create(SystemId::kXU, small());
  bool done = false;
  const auto disk_writes_before = xu->machine().disk().writes();
  xu->kernel().spawn("io", [&](Sys& s) -> Sub<void> {
    const int fd = s.open("/f", true);
    co_await s.file_write(fd, 64 * 1024);
    s.fsync(fd);  // absorbed by the backend's write-behind cache
    done = true;
  });
  EXPECT_TRUE(xu->kernel().run_until([&] { return done; },
                                     500 * hw::kCyclesPerMillisecond));
  EXPECT_EQ(xu->machine().disk().writes(), disk_writes_before)
      << "paper §7.3: domU caching avoids the disk at crash-consistency risk";
}

TEST_F(HvTest, HealModeRepairsInsteadOfCrashing) {
  const hw::Pfn some_l1 = k().kernel_l1_frames().front();
  const hw::PhysAddr pte_addr = hw::addr_of(some_l1) + 24;
  const std::uint32_t good = sut->machine().memory().read_u32(pte_addr);
  // Taint directly (bypassing hypercalls, like a wild write).
  hw::Pte evil = hw::make_pte(hv().reserved_first(), true, true);
  sut->machine().memory().write_u32(pte_addr, evil.raw);
  hv().set_heal_mode(true);
  std::size_t present = 0;
  EXPECT_TRUE(hv().validate_l1(cpu(), hv().domain(0), some_l1, 0, &present));
  hv().set_heal_mode(false);
  EXPECT_FALSE(hv().domain(0).crashed);
  EXPECT_GE(hv().stats().entries_healed, 1u);
  EXPECT_EQ(sut->machine().memory().read_u32(pte_addr), 0u);
  (void)good;
}

// A direct-map L1 of dom0 whose 1 024 entries are present and map
// consecutive frames in uniform shards of dom0's plain RAM: the table
// validate_l1 accepts in one bulk pass.
std::optional<hw::Pfn> bulk_checkable_l1(Sut& sut) {
  const vmm::PageInfoTable& pit = sut.hypervisor()->page_info();
  const auto plain = [&](hw::Pfn pfn) {
    const vmm::PageInfo* v = pit.uniform_value(pit.shard_of(pfn));
    return v != nullptr && v->owner == 0 && v->type == PageType::kWritable;
  };
  for (const hw::Pfn l1 : sut.kernel().kernel_l1_frames()) {
    const hw::Pte first{sut.machine().memory().read_u32(hw::addr_of(l1))};
    bool ok = first.present() && plain(first.pfn()) &&
              plain(first.pfn() + hw::kPtEntries - 1);
    for (std::uint32_t e = 0; ok && e < hw::kPtEntries; ++e) {
      const hw::Pte pte{sut.machine().memory().read_u32(hw::addr_of(l1) + e * 4)};
      ok = pte.present() && pte.pfn() == first.pfn() + e;
    }
    if (ok) return l1;
  }
  return std::nullopt;
}

TEST_F(HvTest, BulkValidationRejectsWhatThePerEntryLoopRejects) {
  // Each case plants one bad or missing entry in a bulk-checkable table and
  // states the per-entry loop's verdict, in crash mode and in heal mode.
  struct Case {
    const char* name;
    std::function<void(Sut&, hw::Pfn l1, std::uint32_t e)> plant;
    const char* crash_reason;  // nullptr: the table stays valid
  };
  const Case cases[] = {
      {"writable entry to a frame typed L1",
       [](Sut& s, hw::Pfn l1, std::uint32_t e) {
         const hw::Pte pte{s.machine().memory().read_u32(hw::addr_of(l1) + e * 4)};
         ASSERT_TRUE(pte.writable());
         s.hypervisor()->page_info().at(pte.pfn()).type = PageType::kL1;
       },
       "writable mapping of a page-table frame"},
      {"entry to another domain's frame",
       [](Sut& s, hw::Pfn l1, std::uint32_t e) {
         vmm::Hypervisor& hv = *s.hypervisor();
         hw::Pfn first = 0;
         ASSERT_TRUE(s.machine().frames().alloc_contiguous(8, first));
         const DomainId other = hv.create_domain("other", nullptr, first, 8,
                                                 /*privileged=*/false, 1);
         hv.init_domain_memory(hv.domain(other));
         s.machine().memory().write_u32(hw::addr_of(l1) + e * 4,
                                        hw::make_pte(first, true, false).raw);
       },
       "owned by another domain"},
      {"entry cleared",
       [](Sut& s, hw::Pfn l1, std::uint32_t e) {
         s.machine().memory().write_u32(hw::addr_of(l1) + e * 4, 0);
       },
       nullptr},
  };
  constexpr std::uint32_t kEntry = 517;
  constexpr hw::Cycles kPerPte = pv::costs::kPerPtePinScan;
  for (const Case& c : cases) {
    for (const bool heal : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (heal ? ", heal mode" : ", crash mode"));
      auto s = Sut::create(SystemId::kX0, small());
      vmm::Hypervisor& hv = *s->hypervisor();
      hw::Cpu& cpu = s->machine().cpu(0);
      const std::optional<hw::Pfn> l1 = bulk_checkable_l1(*s);
      ASSERT_TRUE(l1.has_value()) << "no direct-map L1 over uniform shards";
      const auto validate = [&](std::size_t* present) {
        return hv.validate_l1(cpu, hv.domain(0), *l1, kPerPte, present);
      };
      // Untouched, the table passes whole.
      std::size_t present = 0;
      std::uint64_t validations = hv.stats().pte_validations;
      hw::Cycles t0 = cpu.now();
      ASSERT_TRUE(validate(&present));
      EXPECT_EQ(present, hw::kPtEntries);
      EXPECT_EQ(hv.stats().pte_validations - validations, hw::kPtEntries);
      EXPECT_EQ(cpu.now() - t0, hw::kPtEntries * kPerPte);

      c.plant(*s, *l1, kEntry);
      std::vector<std::uint32_t> before(hw::kPtEntries);
      for (std::uint32_t e = 0; e < hw::kPtEntries; ++e)
        before[e] = s->machine().memory().read_u32(hw::addr_of(*l1) + e * 4);
      const std::uint64_t healed = hv.stats().entries_healed;
      hv.set_heal_mode(heal);
      present = 0;
      validations = hv.stats().pte_validations;
      t0 = cpu.now();
      const bool ok = validate(&present);
      const hw::Cycles charged = cpu.now() - t0;
      const std::uint64_t validated = hv.stats().pte_validations - validations;
      if (c.crash_reason == nullptr) {
        // One entry absent: 1 023 validated, nothing to repair.
        EXPECT_TRUE(ok);
        EXPECT_EQ(present, hw::kPtEntries - 1);
        EXPECT_EQ(validated, hw::kPtEntries - 1);
        EXPECT_EQ(charged, hw::kPtEntries * kPerPte);
        EXPECT_EQ(hv.stats().entries_healed, healed);
      } else if (!heal) {
        // The loop stops at the planted entry and charges up to it.
        EXPECT_FALSE(ok);
        EXPECT_TRUE(hv.domain(0).crashed);
        EXPECT_NE(hv.domain(0).crash_reason.find(c.crash_reason),
                  std::string::npos)
            << hv.domain(0).crash_reason;
        EXPECT_EQ(validated, kEntry + 1);
        EXPECT_EQ(charged, (kEntry + 1) * kPerPte);
      } else {
        // Heal mode clears exactly the planted entry.
        EXPECT_TRUE(ok);
        EXPECT_FALSE(hv.domain(0).crashed);
        EXPECT_EQ(present, hw::kPtEntries - 1);
        EXPECT_EQ(validated, hw::kPtEntries);
        EXPECT_EQ(hv.stats().entries_healed, healed + 1);
        EXPECT_EQ(charged, hw::kPtEntries * kPerPte + hw::costs::kMemAccess);
        for (std::uint32_t e = 0; e < hw::kPtEntries; ++e)
          EXPECT_EQ(s->machine().memory().read_u32(hw::addr_of(*l1) + e * 4),
                    e == kEntry ? 0u : before[e])
              << "entry " << e;
      }
    }
  }
}

/// bulk_checkable_l1's table, with one frame of its page-info shard (a
/// frame it does not map) typed as a page table: the shard is materialized,
/// so validate_l1 takes the per-entry loop, as it does for a direct-map
/// table over a shard that holds page tables.
std::optional<hw::Pfn> direct_map_l1_over_materialized_shard(Sut& sut) {
  const std::optional<hw::Pfn> l1 = bulk_checkable_l1(sut);
  if (!l1) return std::nullopt;
  vmm::PageInfoTable& pit = sut.hypervisor()->page_info();
  const hw::Pfn base =
      hw::Pte{sut.machine().memory().read_u32(hw::addr_of(*l1))}.pfn();
  const auto shard_first = static_cast<hw::Pfn>(
      pit.shard_of(base) * vmm::PageInfoTable::kFramesPerShard);
  const hw::Pfn typed = base > shard_first ? shard_first : base + hw::kPtEntries;
  pit.at(typed).type = PageType::kL1;
  if (pit.uniform_value(pit.shard_of(base)) != nullptr) return std::nullopt;
  return l1;
}

/// The L1 of a dom0 task that touched every 37th page of a fresh mapping:
/// a table of scattered entries.
std::optional<hw::Pfn> scattered_user_l1(Sut& sut) {
  kernel::Kernel& k = sut.kernel();
  auto va = std::make_shared<hw::VirtAddr>(0);
  const kernel::Pid pid = k.spawn("scatter", [va](Sys& s) -> Sub<void> {
    *va = s.mmap(512 * hw::kPageSize, true);
    for (std::size_t p = 0; p < 512; p += 37)
      s.touch_pages(*va + p * hw::kPageSize, 1, true);
    for (;;) co_await s.sleep_us(50'000.0);
  });
  k.run_for(5 * hw::kCyclesPerMillisecond);
  if (*va == 0) return std::nullopt;
  const hw::Pfn pd = k.find_task(pid)->aspace->page_directory();
  const hw::Pte pde{sut.machine().memory().read_u32(
      hw::addr_of(pd) + hw::pde_index(*va) * 4)};
  if (!pde.present()) return std::nullopt;
  return pde.pfn();
}

TEST_F(HvTest, PerEntryValidationNamesEveryViolation) {
  // The two table kinds whose entries validate_l1 checks one at a time: a
  // direct-map table over a materialized shard and a user table. Each case
  // plants one violation pte_value_violation names; the scan must stop at
  // it (crash mode) or clear exactly it (heal mode), charging and counting
  // what the loop reached.
  struct Table {
    const char* name;
    std::optional<hw::Pfn> (*find)(Sut&);
  };
  struct Case {
    const char* name;
    hw::Pte (*bad)(Sut&);
    const char* crash_reason;
  };
  const Table tables[] = {
      {"direct-map table over a materialized shard",
       direct_map_l1_over_materialized_shard},
      {"user table of scattered entries", scattered_user_l1},
  };
  const Case cases[] = {
      {"nonexistent frame",
       [](Sut& s) {
         return hw::make_pte(static_cast<hw::Pfn>(
                                 s.hypervisor()->page_info().size() + 7),
                             false, true);
       },
       "PTE targets nonexistent frame"},
      {"hypervisor frame",
       [](Sut& s) {
         return hw::make_pte(s.hypervisor()->reserved_first() + 3, false,
                             false);
       },
       "PTE maps a hypervisor frame"},
      {"another domain's frame",
       [](Sut& s) {
         vmm::Hypervisor& hv = *s.hypervisor();
         hw::Pfn first = 0;
         EXPECT_TRUE(s.machine().frames().alloc_contiguous(8, first));
         const DomainId other = hv.create_domain("other", nullptr, first, 8,
                                                 /*privileged=*/false, 1);
         hv.init_domain_memory(hv.domain(other));
         return hw::make_pte(first + 2, false, true);
       },
       "PTE maps a frame owned by another domain"},
      {"writable mapping of a page table",
       [](Sut& s) {
         return hw::make_pte(s.kernel().kernel_pd(), true, false);
       },
       "writable mapping of a page-table frame"},
  };
  constexpr hw::Cycles kPerPte = pv::costs::kPerPtePinScan;
  for (const Table& table : tables) {
    for (const Case& c : cases) {
      for (const bool heal : {false, true}) {
        SCOPED_TRACE(std::string(table.name) + ", " + c.name +
                     (heal ? ", heal mode" : ", crash mode"));
        auto s = Sut::create(SystemId::kX0, small());
        vmm::Hypervisor& hv = *s->hypervisor();
        hw::Cpu& cpu = s->machine().cpu(0);
        hw::PhysicalMemory& mem = s->machine().memory();
        const std::optional<hw::Pfn> l1 = table.find(*s);
        ASSERT_TRUE(l1.has_value());
        const auto entries = [&] {
          std::vector<hw::Pte> v(hw::kPtEntries);
          for (std::uint32_t e = 0; e < hw::kPtEntries; ++e)
            v[e] = hw::Pte{mem.read_u32(hw::addr_of(*l1) + e * 4)};
          return v;
        };
        const auto count_present = [](const std::vector<hw::Pte>& v,
                                      std::uint32_t end) {
          return static_cast<std::size_t>(
              std::count_if(v.begin(), v.begin() + end,
                            [](hw::Pte p) { return p.present(); }));
        };
        const auto validate = [&](std::size_t* present) {
          return hv.validate_l1(cpu, hv.domain(0), *l1, kPerPte, present);
        };

        // Untouched, the table passes, charging every slot.
        const std::vector<hw::Pte> clean = entries();
        const std::size_t clean_present = count_present(clean, hw::kPtEntries);
        ASSERT_GT(clean_present, 0u);
        std::size_t present = 0;
        std::uint64_t validations = hv.stats().pte_validations;
        hw::Cycles t0 = cpu.now();
        ASSERT_TRUE(validate(&present));
        EXPECT_EQ(present, clean_present);
        EXPECT_EQ(hv.stats().pte_validations - validations, clean_present);
        EXPECT_EQ(cpu.now() - t0, hw::kPtEntries * kPerPte);

        // Plant the violation in the slot after the second present entry:
        // the loop has validated entries before it.
        std::uint32_t slot = 0;
        for (std::size_t seen = 0; slot < hw::kPtEntries; ++slot)
          if (clean[slot].present() && ++seen == 2) break;
        slot = (slot + 1) % hw::kPtEntries;
        mem.write_u32(hw::addr_of(*l1) + slot * 4, c.bad(*s).raw);
        const std::vector<hw::Pte> planted = entries();
        const std::uint64_t healed = hv.stats().entries_healed;
        hv.set_heal_mode(heal);
        present = 0;
        validations = hv.stats().pte_validations;
        t0 = cpu.now();
        const bool ok = validate(&present);
        const hw::Cycles charged = cpu.now() - t0;
        const std::uint64_t validated = hv.stats().pte_validations - validations;
        if (!heal) {
          EXPECT_FALSE(ok);
          EXPECT_TRUE(hv.domain(0).crashed);
          EXPECT_EQ(hv.domain(0).crash_reason,
                    std::string("L1 validation: ") + c.crash_reason);
          EXPECT_EQ(validated, count_present(planted, slot) + 1);
          EXPECT_EQ(charged, (slot + 1) * kPerPte);
          EXPECT_EQ(hv.stats().entries_healed, healed);
        } else {
          const std::size_t planted_present =
              count_present(planted, hw::kPtEntries);
          EXPECT_TRUE(ok);
          EXPECT_FALSE(hv.domain(0).crashed);
          EXPECT_EQ(present, planted_present - 1);
          EXPECT_EQ(validated, planted_present);
          EXPECT_EQ(hv.stats().entries_healed, healed + 1);
          EXPECT_EQ(charged, hw::kPtEntries * kPerPte + hw::costs::kMemAccess);
          const std::vector<hw::Pte> after = entries();
          for (std::uint32_t e = 0; e < hw::kPtEntries; ++e)
            EXPECT_EQ(after[e].raw, e == slot ? 0u : planted[e].raw)
                << "entry " << e;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mercury::testing
