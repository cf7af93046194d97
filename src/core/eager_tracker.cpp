#include "core/eager_tracker.hpp"

#include "kernel/kernel.hpp"

namespace mercury::core {

using vmm::PageInfo;
using vmm::PageType;

void EagerTrackingVo::bind(hw::Cpu& cpu, kernel::Kernel& k, vmm::DomainId dom) {
  dom_ = dom;
  vmm::Domain& d = hv_.domain(dom_);
  hv_.rebuild_page_info(cpu, d);
  // Type the page tables without write-protecting them (the VMM is dormant;
  // protection is applied only when it activates).
  auto type_as = [&](hw::Pfn pfn, PageType type) {
    PageInfo& pi = hv_.page_info().at(pfn);
    pi.type = type;
    pi.pinned = true;
    pi.type_count = 1;
  };
  for (const hw::Pfn l1 : k.kernel_l1_frames()) type_as(l1, PageType::kL1);
  type_as(k.kernel_pd(), PageType::kL2);
  k.for_each_task([&](kernel::Task& t) {
    if (!t.aspace) return;
    for (const hw::Pfn pt : t.aspace->page_table_frames())
      type_as(pt, pt == t.aspace->page_directory() ? PageType::kL2
                                                   : PageType::kL1);
  });
  hv_.page_info().set_valid(true);
}

// Each override charges its bookkeeping first, then runs the native op,
// whose guard charges the VO dispatch overhead.

void EagerTrackingVo::pte_write(hw::Cpu& cpu, hw::PhysAddr pte_addr,
                                hw::Pte value) {
  if (bound()) {
    // The tracked bookkeeping: adjust the dormant VMM's view as we go.
    cpu.charge(pv::costs::kEagerTrackPerPte);
    ++tracked_;
  }
  NativeVo::pte_write(cpu, pte_addr, value);
}

void EagerTrackingVo::pte_write_batch(hw::Cpu& cpu,
                                      std::span<const pv::PteUpdate> updates) {
  if (bound()) {
    cpu.charge(pv::costs::kEagerTrackPerPte * updates.size());
    tracked_ += updates.size();
  }
  NativeVo::pte_write_batch(cpu, updates);
}

void EagerTrackingVo::pin_page_table(hw::Cpu& cpu, hw::Pfn pfn,
                                     pv::PtLevel level) {
  if (bound()) {
    cpu.charge(pv::costs::kEagerTrackPerPte * 4);
    PageInfo& pi = hv_.page_info().at(pfn);
    pi.owner = dom_;
    pi.type = level == pv::PtLevel::kL1 ? PageType::kL1 : PageType::kL2;
    pi.pinned = true;
    pi.type_count += 1;
    ++tracked_;
  }
  NativeVo::pin_page_table(cpu, pfn, level);
}

void EagerTrackingVo::unpin_page_table(hw::Cpu& cpu, hw::Pfn pfn) {
  if (bound()) {
    cpu.charge(pv::costs::kEagerTrackPerPte * 4);
    PageInfo& pi = hv_.page_info().at(pfn);
    if (pi.type_count > 0) pi.type_count -= 1;
    if (pi.type_count == 0) {
      pi.pinned = false;
      pi.type = PageType::kWritable;
    }
    ++tracked_;
  }
  NativeVo::unpin_page_table(cpu, pfn);
}

}  // namespace mercury::core
