// Hypercall implementations: the guest->VMM service interface.
#include <string>

#include "hw/costs.hpp"
#include "kernel/kernel.hpp"
#include "obs/obs.hpp"
#include "pv/costs.hpp"
#include "util/assert.hpp"
#include "vmm/hypervisor.hpp"

namespace mercury::vmm {

using kernel::Kernel;

/// One hypercall's ring crossings: entry on construction, exit on
/// destruction. The guest is unavailable from the crossing in until the
/// return to ring 1, one hypercall interval around both.
class Hypervisor::HypercallFrame {
 public:
  HypercallFrame(Hypervisor& hv, hw::Cpu& cpu)
      : hv_(hv), cpu_(cpu), interval_(cpu, obs::IntervalKind::kHypercall) {
    MERC_CHECK_MSG(hv_.state_ == State::kActive, "hypercall into inactive VMM");
    ++hv_.stats_.hypercalls;
    cpu_.charge(pv::costs::kHypercallEntry);
    cpu_.set_cpl(hw::Ring::kRing0);
  }
  ~HypercallFrame() {
    cpu_.charge(pv::costs::kHypercallExit);
    // Return to the guest kernel's ring (hypercalls come from kernel mode).
    cpu_.set_cpl(hw::Ring::kRing1);
  }
  HypercallFrame(const HypercallFrame&) = delete;
  HypercallFrame& operator=(const HypercallFrame&) = delete;

 private:
  Hypervisor& hv_;
  hw::Cpu& cpu_;
  const obs::Interval interval_;  // closes after the exit crossing
};

void Hypervisor::hc_mmu_update(hw::Cpu& cpu, DomainId dom,
                               std::span<const pv::PteUpdate> updates) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.mmu_update");
  Domain& d = domain(dom);
  for (const auto& u : updates) {
    cpu.charge(pv::costs::kValidatePte);
    ++stats_.pte_validations;
    std::string why;
    if (!validate_update(d, u.pte_addr, u.value, &why)) {
      crash_domain(dom, "mmu_update: " + why);
      break;
    }
    machine_.memory().write_u32(u.pte_addr, u.value.raw);
    cpu.charge(hw::costs::kMemAccess);
    if (d.log_dirty() && u.value.present() && u.value.writable())
      d.mark_dirty(u.value.pfn());
  }
}

void Hypervisor::hc_pte_write_emulate(hw::Cpu& cpu, DomainId dom,
                                      hw::PhysAddr pte_addr, hw::Pte value) {
  // Writable-page-table path: the guest's mov to a (read-only) PT page traps
  // into the VMM, which decodes and emulates the write with validation. This
  // is dearer than a batched mmu_update — and it is the path a 2.6-era
  // XenoLinux kernel took for most PTE updates.
  MERC_CHECK_MSG(state_ == State::kActive, "pte emulation into inactive VMM");
  ++stats_.hypercalls;
  ++stats_.emulated_pte_writes;
  MERC_COUNT("vmm.hypercall.pte_write_emulate");
  // A trap, not a call: no hypercall frame, but an unavailability
  // interval of its own from the trap to the return.
  const obs::Interval interval(cpu, obs::IntervalKind::kPteWriteEmulate);
  cpu.charge(hw::costs::kTrapEntry + pv::costs::kVmmTrapDispatch +
             pv::costs::kPteEmulateDecode);
  cpu.set_cpl(hw::Ring::kRing0);
  Domain& d = domain(dom);
  cpu.charge(pv::costs::kValidatePte);
  ++stats_.pte_validations;
  std::string why;
  if (!validate_update(d, pte_addr, value, &why)) {
    crash_domain(dom, "emulated PTE write: " + why);
  } else {
    machine_.memory().write_u32(pte_addr, value.raw);
    cpu.charge(hw::costs::kMemAccess);
    if (d.log_dirty() && value.present() && value.writable())
      d.mark_dirty(value.pfn());
  }
  cpu.charge(hw::costs::kTrapReturn + pv::costs::kPteEmulateReturn);
  cpu.set_cpl(hw::Ring::kRing1);
}

void Hypervisor::hc_pin_table(hw::Cpu& cpu, DomainId dom, hw::Pfn table,
                              pv::PtLevel level) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.pin_table");
  Domain& d = domain(dom);
  PageInfo& pi = page_info_.at(table);
  if (pi.owner != dom) {
    crash_domain(dom, "pin of a foreign frame");
    return;
  }
  cpu.charge(pv::costs::kPinBase);
  ++stats_.pins;
  // Protect before validating so the no-writable-PT-mapping rule holds for
  // the frame's own direct-map entry.
  pi.type = level == pv::PtLevel::kL1 ? PageType::kL1 : PageType::kL2;
  pi.pinned = true;
  pi.type_count += 1;
  if (Kernel* k = d.guest()) set_frame_writable(cpu, *k, table, false);
  std::size_t present = 0;
  const bool ok = level == pv::PtLevel::kL1
                      ? validate_l1(cpu, d, table, 0, &present)
                      : validate_l2(cpu, d, table, 0, &present);
  if (!ok) {
    // Validation failure crashed the domain; roll the typing back.
    pi.type = PageType::kWritable;
    pi.pinned = false;
    pi.type_count -= 1;
    if (Kernel* k = d.guest()) set_frame_writable(cpu, *k, table, true);
    return;
  }
  cpu.charge(pv::costs::kPinPerPresentPte * present);
}

void Hypervisor::hc_unpin_table(hw::Cpu& cpu, DomainId dom, hw::Pfn table) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.unpin_table");
  Domain& d = domain(dom);
  PageInfo& pi = page_info_.at(table);
  if (pi.owner != dom || !pi.pinned) {
    crash_domain(dom, "unpin of a frame that is not a pinned table");
    return;
  }
  cpu.charge(pv::costs::kUnpinBase);
  ++stats_.unpins;
  // Count the present entries being released (reference bookkeeping).
  std::size_t present = 0;
  for (std::uint32_t e = 0; e < hw::kPtEntries; ++e) {
    const hw::Pte pte{machine_.memory().read_u32(hw::addr_of(table) + e * 4)};
    if (pte.present()) ++present;
  }
  cpu.charge(pv::costs::kUnpinPerPresentPte * present);
  MERC_CHECK(pi.type_count > 0);
  pi.type_count -= 1;
  if (pi.type_count == 0) {
    pi.pinned = false;
    pi.type = PageType::kWritable;
    if (Kernel* k = d.guest()) set_frame_writable(cpu, *k, table, true);
  }
}

void Hypervisor::hc_write_cr3(hw::Cpu& cpu, DomainId dom, hw::Pfn root) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.write_cr3");
  Domain& d = domain(dom);
  const PageInfo& pi = page_info_.at(root);
  if (pi.owner != dom || pi.type != PageType::kL2 || !pi.pinned) {
    crash_domain(dom, "cr3 load of an unpinned/non-L2 frame");
    return;
  }
  ++stats_.cr3_switches;
  // The VMM's full context-switch path: CR3 install, segment refresh, event
  // mask bookkeeping.
  cpu.charge(pv::costs::kVmmCtxSwitch);
  at_ring0(cpu, [&] { cpu.write_cr3(root); });
  VcpuContext& vc = d.vcpu(cpu.id() % d.num_vcpus());
  vc.cr3 = root;
}

void Hypervisor::hc_set_trap_table(hw::Cpu& cpu, DomainId dom,
                                   hw::TableToken guest_idt) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.set_trap_table");
  Domain& d = domain(dom);
  for (std::size_t v = 0; v < d.num_vcpus(); ++v) d.vcpu(v).guest_idt = guest_idt;
  // The hardware IDT stays the hypervisor's own.
  at_ring0(cpu, [&] { cpu.load_idt(idt_token_); });
}

void Hypervisor::hc_load_guest_gdt(hw::Cpu& cpu, DomainId dom,
                                   hw::TableToken guest_gdt) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.load_guest_gdt");
  Domain& d = domain(dom);
  for (std::size_t v = 0; v < d.num_vcpus(); ++v) d.vcpu(v).guest_gdt = guest_gdt;
  at_ring0(cpu, [&] { cpu.load_gdt(gdt_token_); });
}

void Hypervisor::hc_stack_switch(hw::Cpu& cpu, DomainId dom) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.stack_switch");
  (void)domain(dom);
  cpu.charge(hw::costs::kPrivRegWrite * 2);  // TSS esp0/ss0 update
}

void Hypervisor::hc_flush_tlb(hw::Cpu& cpu, DomainId dom) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.flush_tlb");
  (void)domain(dom);
  cpu.charge(hw::costs::kTlbFlushAll);
  cpu.tlb().flush_all();
}

void Hypervisor::hc_flush_tlb_page(hw::Cpu& cpu, DomainId dom, hw::VirtAddr va) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.flush_tlb_page");
  (void)domain(dom);
  cpu.charge(hw::costs::kTlbFlushPage);
  cpu.tlb().flush_page(hw::vpn_of(va));
}

void Hypervisor::hc_set_virq_mask(hw::Cpu& cpu, DomainId dom, bool enabled) {
  // Not a trap: the guest toggles its virtual IF in writable shared info.
  MERC_COUNT("vmm.hypercall.set_virq_mask");
  Domain& d = domain(dom);
  cpu.charge(pv::costs::kVirtIrqToggle);
  d.vcpu(cpu.id() % d.num_vcpus()).virq_enabled = enabled;
  // Mirror into the simulated IF so interrupt delivery honours the mask.
  cpu.set_iflag_raw(enabled);
}

void Hypervisor::hc_send_ipi(hw::Cpu& cpu, DomainId dom, std::uint32_t dst,
                             std::uint8_t vector, std::uint32_t payload) {
  const HypercallFrame frame(*this, cpu);
  MERC_COUNT("vmm.hypercall.send_ipi");
  (void)domain(dom);
  machine_.interrupts().send_ipi(cpu, dst, vector, payload);
}

}  // namespace mercury::vmm
