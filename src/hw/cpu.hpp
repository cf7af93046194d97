// Simulated CPU: privilege level, control registers, local cycle clock,
// per-CPU TLB, and trap delivery.
//
// Privileged register accesses are enforced in hardware: executing them at
// CPL > 0 raises #GP to the installed trap sink (the entity that owns ring 0
// — the native kernel, or the VMM when one is attached). This is the
// de-privileging mechanism self-virtualization toggles.
#pragma once

#include <cstdint>
#include <string>

#include "hw/costs.hpp"
#include "hw/tlb.hpp"
#include "hw/types.hpp"

namespace mercury::hw {

class Cpu;

enum class TrapKind : std::uint8_t {
  kGeneralProtection,
  kPageFault,
  kInvalidOpcode,
};

struct TrapInfo {
  TrapKind kind = TrapKind::kGeneralProtection;
  VirtAddr fault_addr = 0;   // for #PF
  bool write = false;        // for #PF
  bool user_mode = false;    // CPL==3 at fault time
  std::string detail;
};

/// Receiver of hardware traps. Installed by whoever owns ring 0.
class TrapSink {
 public:
  virtual ~TrapSink() = default;
  virtual void on_trap(Cpu& cpu, const TrapInfo& info) = 0;
};

/// Opaque token naming a loaded descriptor-table image (IDT/GDT). The
/// simulator does not model descriptor bytes; it models *which* table is
/// loaded, which is what the mode-switch state reloading must get right.
struct TableToken {
  std::uint32_t id = 0;
  friend constexpr bool operator==(TableToken, TableToken) = default;
};

class Cpu {
 public:
  explicit Cpu(std::uint32_t id);

  std::uint32_t id() const { return id_; }

  // --- simulated time ---
  Cycles now() const { return cycles_; }
  void charge(Cycles c) { cycles_ += c; }
  /// Clock alignment for rendezvous/idle (never moves time backwards).
  void advance_to(Cycles t) {
    if (t > cycles_) cycles_ = t;
  }
  /// RDTSC: readable at any privilege level; costs a few cycles.
  Cycles rdtsc() {
    charge(8);
    return cycles_;
  }

  // --- privilege ---
  Ring cpl() const { return cpl_; }
  /// CPL changes happen through controlled hardware paths (trap entry/exit,
  /// call gates); the simulator exposes it directly to those layers.
  void set_cpl(Ring r) { cpl_ = r; }

  // --- privileged registers (enforced) ---
  bool write_cr3(Pfn root);
  Pfn read_cr3() const { return cr3_; }
  bool load_idt(TableToken t);
  TableToken idt() const { return idtr_; }
  bool load_gdt(TableToken t);
  TableToken gdt() const { return gdtr_; }
  bool set_interrupts_enabled(bool on);
  bool interrupts_enabled() const { return iflag_; }
  /// Hardware-internal IF manipulation: used by the VMM to mirror a guest's
  /// *virtual* interrupt flag (shared-info event mask) without a privileged
  /// instruction. Not reachable from guest code paths.
  void set_iflag_raw(bool on) { iflag_ = on; }
  bool invlpg(VirtAddr va);
  bool halt();
  bool halted() const { return halted_; }
  void wake() { halted_ = false; }

  // --- traps ---
  void install_trap_sink(TrapSink* sink) { trap_sink_ = sink; }
  TrapSink* trap_sink() const { return trap_sink_; }
  /// Hardware-raised trap (privilege violation, page fault from the MMU).
  void raise_trap(const TrapInfo& info);

  /// A trap handler may patch the privilege level that the trap will return
  /// to (the paper's §5.1.3: a mode switch rewrites the privilege level in
  /// the interrupt return frame).
  void set_trap_return_cpl(Ring r) { trap_return_cpl_ = r; }

  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }

 private:
  bool require_ring0(const char* what);

  std::uint32_t id_;
  Cycles cycles_ = 0;
  Ring cpl_ = Ring::kRing0;
  Pfn cr3_ = 0;
  TableToken idtr_{};
  TableToken gdtr_{};
  bool iflag_ = false;
  bool halted_ = false;
  TrapSink* trap_sink_ = nullptr;
  Ring trap_return_cpl_ = Ring::kRing0;
  Tlb tlb_;
};

}  // namespace mercury::hw
