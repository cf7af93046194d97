// The virtual machine interface: every virtualization-sensitive operation
// the kernel performs goes through this table (paravirt-ops/VMI style,
// paper §4.2/§5.3).
//
// Implementations, both virtualization objects (core/virt_object.hpp) that
// reference count every op's entry and exit:
//   core::NativeVo      — direct hardware ops. Mercury's native mode (M-N)
//                         charges its VO dispatch per op; unmodified native
//                         Linux (N-L) runs on one whose charge is 0.
//                         core::EagerTrackingVo is a NativeVo that also keeps
//                         the dormant VMM's page-info table fresh.
//   core::VirtualVo     — hypercalls into the (pre-cached) VMM (M-V, and the
//                         kernels of X-0/X-U/M-U).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "hw/cpu.hpp"
#include "hw/devices/nic.hpp"
#include "hw/devices/sensors.hpp"
#include "hw/pte.hpp"
#include "hw/types.hpp"

namespace mercury::pv {

enum class PtLevel : std::uint8_t { kL1 = 1, kL2 = 2 };

struct PteUpdate {
  hw::PhysAddr pte_addr = 0;
  hw::Pte value{};
};

class SensitiveOps {
 public:
  virtual ~SensitiveOps() = default;

  virtual const char* mode_name() const = 0;
  virtual bool is_virtual() const = 0;
  /// Privilege ring the kernel executes at under this object.
  virtual hw::Ring kernel_ring() const = 0;
  /// Extra cycles per KB of kernel<->user buffer copying in this mode.
  virtual hw::Cycles copy_tax_per_kb() const { return 0; }

  // --- sensitive CPU operations ---
  virtual void write_cr3(hw::Cpu& cpu, hw::Pfn root) = 0;
  virtual void load_idt(hw::Cpu& cpu, hw::TableToken t) = 0;
  virtual void load_gdt(hw::Cpu& cpu, hw::TableToken t) = 0;
  virtual void irq_disable(hw::Cpu& cpu) = 0;
  virtual void irq_enable(hw::Cpu& cpu) = 0;
  /// Kernel stack pointer announcement on context switch (TSS esp0 write
  /// natively; the stack_switch hypercall under a VMM).
  virtual void stack_switch(hw::Cpu& cpu) = 0;
  virtual void syscall_entered(hw::Cpu& cpu) = 0;
  virtual void syscall_exiting(hw::Cpu& cpu) = 0;

  // --- sensitive memory operations ---
  virtual void pte_write(hw::Cpu& cpu, hw::PhysAddr pte_addr, hw::Pte value) = 0;
  virtual void pte_write_batch(hw::Cpu& cpu, std::span<const PteUpdate> updates) = 0;
  virtual void pin_page_table(hw::Cpu& cpu, hw::Pfn pfn, PtLevel level) = 0;
  virtual void unpin_page_table(hw::Cpu& cpu, hw::Pfn pfn) = 0;
  virtual void flush_tlb(hw::Cpu& cpu) = 0;
  virtual void flush_tlb_page(hw::Cpu& cpu, hw::VirtAddr va) = 0;

  // --- interrupts ---
  virtual void send_ipi(hw::Cpu& cpu, std::uint32_t dst_cpu, std::uint8_t vector,
                        std::uint32_t payload) = 0;

  // --- sensitive I/O operations ---
  virtual void disk_read(hw::Cpu& cpu, std::uint64_t block,
                         std::span<std::uint8_t> out) = 0;
  virtual void disk_write(hw::Cpu& cpu, std::uint64_t block,
                          std::span<const std::uint8_t> in) = 0;
  virtual void disk_flush(hw::Cpu& cpu) = 0;
  virtual void net_send(hw::Cpu& cpu, hw::Packet pkt) = 0;
  virtual std::optional<hw::Packet> net_poll(hw::Cpu& cpu) = 0;
  virtual void sensors_read(hw::Cpu& cpu, hw::SensorReadings& out) = 0;
};

}  // namespace mercury::pv
