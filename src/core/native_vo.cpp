#include "core/native_vo.hpp"

#include "hw/costs.hpp"
#include "kernel/kernel.hpp"

namespace mercury::core {

void NativeVo::write_cr3(hw::Cpu& cpu, hw::Pfn root) {
  OpGuard g(*this, cpu);
  cpu.write_cr3(root);
}
void NativeVo::load_idt(hw::Cpu& cpu, hw::TableToken t) {
  OpGuard g(*this, cpu);
  cpu.load_idt(t);
}
void NativeVo::load_gdt(hw::Cpu& cpu, hw::TableToken t) {
  OpGuard g(*this, cpu);
  cpu.load_gdt(t);
}
void NativeVo::irq_disable(hw::Cpu& cpu) {
  OpGuard g(*this, cpu);
  cpu.set_interrupts_enabled(false);
}
void NativeVo::irq_enable(hw::Cpu& cpu) {
  OpGuard g(*this, cpu);
  cpu.set_interrupts_enabled(true);
}
void NativeVo::stack_switch(hw::Cpu& cpu) {
  OpGuard g(*this, cpu);
  cpu.charge(hw::costs::kPrivRegWrite);  // TSS esp0 update
}
void NativeVo::syscall_entered(hw::Cpu& cpu) {
  OpGuard g(*this, cpu);
  cpu.charge(hw::costs::kSyscallEntry);
}
void NativeVo::syscall_exiting(hw::Cpu& cpu) {
  OpGuard g(*this, cpu);
  cpu.charge(hw::costs::kSyscallReturn);
}
void NativeVo::store_pte(hw::Cpu& cpu, hw::PhysAddr pte_addr, hw::Pte value) {
  cpu.charge(hw::costs::kMemAccess);
  machine_.memory().write_u32(pte_addr, value.raw);
}
void NativeVo::pte_write(hw::Cpu& cpu, hw::PhysAddr pte_addr, hw::Pte value) {
  OpGuard g(*this, cpu);
  store_pte(cpu, pte_addr, value);
}
void NativeVo::pte_write_batch(hw::Cpu& cpu,
                               std::span<const pv::PteUpdate> updates) {
  OpGuard g(*this, cpu);
  for (const auto& u : updates) store_pte(cpu, u.pte_addr, u.value);
}
void NativeVo::pin_page_table(hw::Cpu& cpu, hw::Pfn, pv::PtLevel) {
  OpGuard g(*this, cpu);
}
void NativeVo::unpin_page_table(hw::Cpu& cpu, hw::Pfn) {
  OpGuard g(*this, cpu);
}
void NativeVo::flush_tlb(hw::Cpu& cpu) {
  OpGuard g(*this, cpu);
  cpu.charge(hw::costs::kTlbFlushAll);
  cpu.tlb().flush_all();
}
void NativeVo::flush_tlb_page(hw::Cpu& cpu, hw::VirtAddr va) {
  OpGuard g(*this, cpu);
  cpu.invlpg(va);
}
void NativeVo::send_ipi(hw::Cpu& cpu, std::uint32_t dst_cpu, std::uint8_t vector,
                        std::uint32_t payload) {
  OpGuard g(*this, cpu);
  machine_.interrupts().send_ipi(cpu, dst_cpu, vector, payload);
}
void NativeVo::disk_read(hw::Cpu& cpu, std::uint64_t block,
                         std::span<std::uint8_t> out) {
  OpGuard g(*this, cpu);
  cpu.charge(machine_.disk().read(block, out));
}
void NativeVo::disk_write(hw::Cpu& cpu, std::uint64_t block,
                          std::span<const std::uint8_t> in) {
  OpGuard g(*this, cpu);
  cpu.charge(machine_.disk().write(block, in));
}
void NativeVo::disk_flush(hw::Cpu& cpu) {
  OpGuard g(*this, cpu);
  cpu.charge(machine_.disk().flush());
}
void NativeVo::net_send(hw::Cpu& cpu, hw::Packet pkt) {
  OpGuard g(*this, cpu);
  cpu.charge(machine_.nic().send(std::move(pkt), cpu.now()));
}
std::optional<hw::Packet> NativeVo::net_poll(hw::Cpu& cpu) {
  OpGuard g(*this, cpu);
  auto pkt = machine_.nic().poll(cpu.now());
  if (pkt) cpu.charge(machine_.nic().rx_overhead());
  return pkt;
}
void NativeVo::sensors_read(hw::Cpu& cpu, hw::SensorReadings& out) {
  OpGuard g(*this, cpu);
  cpu.charge(machine_.sensors().read(out));
}

void NativeVo::state_transfer_in(hw::Cpu& cpu, kernel::Kernel& k) {
  // Entering native mode: the kernel segment privilege returns to ring 0.
  // Saved thread selectors are fixed by the resume stub (or the eager walk
  // the switch engine may run); page-table writability was restored by the
  // hypervisor's release path.
  (void)cpu;
  (void)k;
}

void NativeVo::reload_hw_state(hw::Cpu& cpu, kernel::Kernel& k) {
  cpu.charge(pv::costs::kReloadControlState);
  const hw::Ring prev = cpu.cpl();
  cpu.set_cpl(hw::Ring::kRing0);
  cpu.load_idt(k.idt_token());
  cpu.load_gdt(k.gdt_token());
  cpu.write_cr3(cpu.read_cr3());  // reload semantics: full TLB flush
  cpu.tlb().flush_global();
  cpu.set_cpl(prev);
}

}  // namespace mercury::core
