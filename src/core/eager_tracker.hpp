// Eager page-info tracking (paper §5.1.2, design alternative 1).
//
// Instead of recomputing the dormant VMM's owner/type/count table at attach
// time, keep it fresh from native mode: every page-table pin/unpin and PTE
// write updates the table as it happens. The paper measured ~2-3% native
// overhead for only a small attach-time saving and chose the lazy rebuild;
// both are implemented here so bench_ablation_tracking can reproduce that
// trade-off.
//
// The native VO of an eager-tracking Mercury: a NativeVo whose four
// memory-management ops first update the hypervisor's PageInfoTable
// (charging the bookkeeping cost) and then run the plain native op. The
// kernel boots on it before its dom0 record exists; until bind() it acts
// exactly like a plain NativeVo.
#pragma once

#include "core/native_vo.hpp"
#include "vmm/hypervisor.hpp"

namespace mercury::core {

class EagerTrackingVo : public NativeVo {
 public:
  EagerTrackingVo(hw::Machine& machine, vmm::Hypervisor& hv)
      : NativeVo(machine), hv_(hv) {}

  /// Start tracking for the kernel's domain `dom`, initializing the table as
  /// an attach-time rebuild would (boot-time cost, off every measured path).
  void bind(hw::Cpu& cpu, kernel::Kernel& k, vmm::DomainId dom);

  void pte_write(hw::Cpu& cpu, hw::PhysAddr pte_addr, hw::Pte value) override;
  void pte_write_batch(hw::Cpu& cpu,
                       std::span<const pv::PteUpdate> updates) override;
  void pin_page_table(hw::Cpu& cpu, hw::Pfn pfn, pv::PtLevel level) override;
  void unpin_page_table(hw::Cpu& cpu, hw::Pfn pfn) override;

  std::uint64_t tracked_updates() const { return tracked_; }

 private:
  bool bound() const { return dom_ != vmm::kDomInvalid; }

  vmm::Hypervisor& hv_;
  vmm::DomainId dom_ = vmm::kDomInvalid;
  std::uint64_t tracked_ = 0;
};

}  // namespace mercury::core
