#include "hw/cpu.hpp"

#include "util/assert.hpp"
#include "util/log.hpp"

namespace mercury::hw {

Cpu::Cpu(std::uint32_t id) : id_(id) {}

bool Cpu::require_ring0(const char* what) {
  if (cpl_ == Ring::kRing0) return true;
  TrapInfo info;
  info.kind = TrapKind::kGeneralProtection;
  info.user_mode = cpl_ == Ring::kRing3;
  info.detail = what;
  raise_trap(info);
  return false;
}

bool Cpu::write_cr3(Pfn root) {
  if (!require_ring0("mov cr3")) return false;
  charge(costs::kPrivRegWrite);
  cr3_ = root;
  tlb_.flush_all();
  charge(costs::kTlbFlushAll);
  return true;
}

bool Cpu::load_idt(TableToken t) {
  if (!require_ring0("lidt")) return false;
  charge(costs::kPrivRegWrite);
  idtr_ = t;
  return true;
}

bool Cpu::load_gdt(TableToken t) {
  if (!require_ring0("lgdt")) return false;
  charge(costs::kPrivRegWrite);
  gdtr_ = t;
  return true;
}

bool Cpu::set_interrupts_enabled(bool on) {
  // CLI/STI are privileged below IOPL; we model IOPL==0, so ring0 only.
  if (!require_ring0(on ? "sti" : "cli")) return false;
  charge(4);
  iflag_ = on;
  return true;
}

bool Cpu::invlpg(VirtAddr va) {
  if (!require_ring0("invlpg")) return false;
  charge(costs::kTlbFlushPage);
  tlb_.flush_page(vpn_of(va));
  return true;
}

bool Cpu::halt() {
  if (!require_ring0("hlt")) return false;
  halted_ = true;
  return true;
}

void Cpu::raise_trap(const TrapInfo& info) {
  charge(costs::kTrapEntry);
  MERC_CHECK_MSG(trap_sink_ != nullptr,
                 "trap with no sink installed on cpu " << id_ << ": " << info.detail);
  // Trap entry transfers control to ring 0. The return CPL defaults to the
  // interrupted privilege level, but the handler may patch it (mode switch).
  trap_return_cpl_ = cpl_;
  cpl_ = Ring::kRing0;
  trap_sink_->on_trap(*this, info);
  cpl_ = trap_return_cpl_;
  charge(costs::kTrapReturn);
}

}  // namespace mercury::hw
