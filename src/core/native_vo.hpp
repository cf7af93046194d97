// The native-mode virtualization object: the kernel drives the hardware
// directly, and every sensitive op runs under an OpGuard, so its entries and
// exits are reference counted (§5.1.1). This is the only native
// implementation of pv::SensitiveOps. The per-op charge sets the build:
// Mercury's kernel (M-N) pays kVoPerOpOverhead on every op, beside the
// kernel's own per-entry kVoPathTax; unmodified native Linux (N-L), the
// netperf peer and the kernel test fixture run on a NativeVo whose charge
// stays 0.
#pragma once

#include "core/virt_object.hpp"
#include "hw/machine.hpp"

namespace mercury::core {

class NativeVo : public VirtObject {
 public:
  explicit NativeVo(hw::Machine& machine) : machine_(machine) {}

  const char* mode_name() const override { return "native"; }
  bool is_virtual() const override { return false; }
  hw::Ring kernel_ring() const override { return hw::Ring::kRing0; }

  void write_cr3(hw::Cpu& cpu, hw::Pfn root) override;
  void load_idt(hw::Cpu& cpu, hw::TableToken t) override;
  void load_gdt(hw::Cpu& cpu, hw::TableToken t) override;
  void irq_disable(hw::Cpu& cpu) override;
  void irq_enable(hw::Cpu& cpu) override;
  void stack_switch(hw::Cpu& cpu) override;
  void syscall_entered(hw::Cpu& cpu) override;
  void syscall_exiting(hw::Cpu& cpu) override;

  void pte_write(hw::Cpu& cpu, hw::PhysAddr pte_addr, hw::Pte value) override;
  /// One op: a single guard over the whole batch, however many entries.
  void pte_write_batch(hw::Cpu& cpu,
                       std::span<const pv::PteUpdate> updates) override;
  /// Bare hardware imposes no page-type discipline: only the guard charges.
  void pin_page_table(hw::Cpu& cpu, hw::Pfn pfn, pv::PtLevel level) override;
  void unpin_page_table(hw::Cpu& cpu, hw::Pfn pfn) override;
  void flush_tlb(hw::Cpu& cpu) override;
  void flush_tlb_page(hw::Cpu& cpu, hw::VirtAddr va) override;

  void send_ipi(hw::Cpu& cpu, std::uint32_t dst_cpu, std::uint8_t vector,
                std::uint32_t payload) override;

  void disk_read(hw::Cpu& cpu, std::uint64_t block,
                 std::span<std::uint8_t> out) override;
  void disk_write(hw::Cpu& cpu, std::uint64_t block,
                  std::span<const std::uint8_t> in) override;
  void disk_flush(hw::Cpu& cpu) override;
  void net_send(hw::Cpu& cpu, hw::Packet pkt) override;
  std::optional<hw::Packet> net_poll(hw::Cpu& cpu) override;
  void sensors_read(hw::Cpu& cpu, hw::SensorReadings& out) override;

  void state_transfer_in(hw::Cpu& cpu, kernel::Kernel& k) override;
  void reload_hw_state(hw::Cpu& cpu, kernel::Kernel& k) override;

 private:
  /// One PTE store, outside any guard: pte_write and each batch entry.
  void store_pte(hw::Cpu& cpu, hw::PhysAddr pte_addr, hw::Pte value);

  hw::Machine& machine_;
};

}  // namespace mercury::core
