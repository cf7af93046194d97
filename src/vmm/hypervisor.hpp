// The Xen-like hypervisor.
//
// Owns the per-frame owner/type/count table, validates and pins page tables,
// serves hypercalls, routes hardware traps to the owning guest, and hosts
// the split-driver backends. Supports being *pre-cached*: warmed up at
// machine boot into a reserved top-of-memory region and left dormant until
// Mercury attaches it (paper §4.1), at which point the switch engine's
// adopt shards rebuild the page accounting for the already-running kernel
// (§5.1.2).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/fault_inject.hpp"
#include "hw/machine.hpp"
#include "pv/sensitive_ops.hpp"
#include "vmm/blkif.hpp"
#include "vmm/domain.hpp"
#include "vmm/event_channel.hpp"
#include "vmm/grant_table.hpp"
#include "vmm/netif.hpp"
#include "vmm/page_info.hpp"

namespace mercury::kernel {
class Kernel;
}

namespace mercury::vmm {

struct HvStats {
  std::uint64_t hypercalls = 0;
  std::uint64_t traps_dispatched = 0;
  std::uint64_t pte_validations = 0;
  std::uint64_t emulated_pte_writes = 0;
  std::uint64_t pins = 0;
  std::uint64_t unpins = 0;
  std::uint64_t cr3_switches = 0;
  std::uint64_t domains_crashed = 0;
  std::uint64_t entries_healed = 0;
  std::uint64_t adopts = 0;
  std::uint64_t releases = 0;
  std::uint64_t adopt_rollbacks = 0;
  std::uint64_t reprotects = 0;
};

class Hypervisor : public hw::TrapSink {
 public:
  enum class State : std::uint8_t { kCold, kDormant, kActive };

  explicit Hypervisor(hw::Machine& machine);
  ~Hypervisor() override;

  /// Reserve the top 64 MB, build internal structures and the reserved-VA
  /// mappings. Afterwards the VMM is memory-resident but dormant.
  void warm_up();

  State state() const { return state_; }
  bool active() const { return state_ == State::kActive; }
  hw::Machine& machine() { return machine_; }

  hw::Pfn reserved_first() const { return reserved_first_; }
  /// PDEs every kernel must install to reserve the VMM's 64 MB (unified
  /// address-space layout, paper §3.2.2).
  const std::vector<std::pair<std::uint32_t, hw::Pte>>& vmm_pdes() const {
    return vmm_pdes_;
  }
  hw::TableToken idt_token() const { return idt_token_; }
  hw::TableToken gdt_token() const { return gdt_token_; }

  // --- domains ---
  DomainId create_domain(std::string name, kernel::Kernel* guest,
                         hw::Pfn first_frame, std::size_t frame_count,
                         bool privileged, std::size_t num_vcpus);
  void destroy_domain(DomainId id);
  Domain& domain(DomainId id);
  Domain* find_domain(DomainId id);
  std::size_t num_domains() const;
  void crash_domain(DomainId id, std::string reason);
  /// Which guest kernel executes on a physical CPU (trap routing).
  void set_guest_on_cpu(std::uint32_t cpu, kernel::Kernel* k, DomainId dom);

  // --- Mercury attach/detach support ---
  /// Build a (privileged, driver) domain around an already-running native
  /// kernel in one call on `cpu`. When `trust_page_info` is false the full
  /// owner/type/count rebuild runs (the paper's dominant switch cost); true
  /// corresponds to the eager-tracking variant that kept the table fresh.
  /// The switch engine composes the shard entry points below instead; this
  /// whole-range form re-adopts after a detach rollback.
  DomainId adopt_running_os(hw::Cpu& cpu, kernel::Kernel& k, bool trust_page_info);
  /// Unwind a *partially applied* adoption after a mid-switch fault: restore
  /// writability of every frame protected so far, drop (or, for eager
  /// tracking, keep) the page accounting, return to dormancy, and hand the
  /// traps back to the kernel. Safe to call however far the adopt got —
  /// including not at all.
  void rollback_adopt(hw::Cpu& cpu, kernel::Kernel& k, bool keep_page_info);
  /// Recover from a partially applied release while still active: re-protect
  /// and re-validate every page table and re-take the traps, restoring the
  /// fully attached state (detach rollback).
  void reprotect_os(hw::Cpu& cpu, DomainId id, kernel::Kernel& k);
  /// Make the hypervisor the machine's trap owner (or stop being it).
  void take_traps();

  /// Always-on configurations (classic Xen boot): activate straight out of
  /// warm-up so domains can be built and booted under the VMM from scratch.
  void bootstrap_activate();
  /// Initialize page accounting for a freshly built domain (boot path).
  void init_domain_memory(Domain& d);

  // --- switch pipeline (sharded adopt/release) ---
  // The switch engine farms the bulk loops out to a SwitchCrew through these
  // range-based pieces; adopt_running_os above is a whole-range composition
  // of them. Every shard charges the CPU actually executing it and reports
  // the shard fault points, so a mid-shard fault surfaces on the worker and
  // the engine's rollback must converge.
  /// State checks + stats + domain reuse/creation. No simulated cost.
  DomainId begin_adopt(kernel::Kernel& k);
  /// Reset the hypervisor's own reserved frames' accounting (CP-side, O(64MB
  /// of frames), uncharged) and zero shard counters.
  void init_reserved_page_info();
  /// Rebuild owner/type/count for frames [first, first + count), charging
  /// `cpu` per frame.
  void adopt_rebuild_shard(hw::Cpu& cpu, DomainId id, hw::Pfn first,
                           std::size_t count,
                           core::FaultSite site =
                               core::FaultSite::kShardRebuild);
  /// Warm-path variant: reconstruct owner/type/count for exactly the dirty
  /// `frames` against the retained table, charging `cpu` per frame. Frames
  /// inside the hypervisor's reserved region are re-canonicalized as
  /// hypervisor-owned (defense in depth; the engine filters them out).
  void adopt_dirty_rebuild_shard(hw::Cpu& cpu, DomainId id,
                                 std::span<const hw::Pfn> frames,
                                 core::FaultSite site =
                                     core::FaultSite::kDirtyRebuild);
  /// Eager-tracking cross-check sweep over `frames` frames (1 cycle each).
  void adopt_trusted_sweep_shard(hw::Cpu& cpu, std::size_t frames);
  /// Discover every page-table frame of `k` (uncharged discovery walk).
  std::vector<std::pair<hw::Pfn, PageType>> collect_tables(kernel::Kernel& k);
  /// Type + pin + write-protect the given tables, charging `cpu`.
  void adopt_protect_shard(hw::Cpu& cpu, DomainId id, kernel::Kernel& k,
                           std::span<const std::pair<hw::Pfn, PageType>> tables,
                           core::FaultSite site =
                               core::FaultSite::kShardProtect);
  /// Validate the tables of `level` in the span (L1s must all be typed —
  /// i.e. every protect shard done — before any L2 shard validates).
  void adopt_validate_shard(hw::Cpu& cpu, DomainId id,
                            std::span<const std::pair<hw::Pfn, PageType>> tables,
                            PageType level);
  /// Flip to kActive: table valid, guests bound, traps taken.
  void finish_adopt(DomainId id, kernel::Kernel& k);
  /// State checks + stats for a release episode.
  void begin_release(DomainId id);
  /// The currently protected frames, sorted (deterministic shard ranges).
  std::vector<hw::Pfn> protected_frames_snapshot() const;
  /// Restore writability of `frames`, charging `cpu` per frame.
  void release_unprotect_shard(hw::Cpu& cpu, kernel::Kernel& k,
                               std::span<const hw::Pfn> frames,
                               core::FaultSite site =
                                   core::FaultSite::kShardUnprotect);
  /// Flip to kDormant: accounting dropped O(1). With `retain_page_info`
  /// the entry contents survive and the table is marked retained.
  void finish_release(bool retain_page_info = false);

  // --- page-info machinery (exposed for the eager tracker and tests) ---
  PageInfoTable& page_info() { return page_info_; }
  void rebuild_page_info(hw::Cpu& cpu, Domain& d);
  void type_and_protect_tables(hw::Cpu& cpu, Domain& d, kernel::Kernel& k);
  /// Drop protection bookkeeping for frames leaving this machine (domain
  /// migrated away / destroyed): no flips, just forget.
  void forget_frame_range(hw::Pfn first, std::size_t count);
  /// Flip the direct-map writability of a frame (page-table protection).
  /// The single-frame form pays a per-page cross-CPU shootdown; trap-time
  /// pin/unpin and rollback use it. Bulk shards pay kPerPtBatchFlip a flip
  /// (PTE rewrite only) and close the batch with one tlb_shootdown_all.
  void set_frame_writable(hw::Cpu& cpu, kernel::Kernel& k, hw::Pfn pfn,
                          bool writable);
  /// One IPI round + full TLB flush on every CPU, closing a batch of flips.
  void tlb_shootdown_all(hw::Cpu& cpu);
  bool validate_l1(hw::Cpu& cpu, Domain& d, hw::Pfn table, hw::Cycles per_pte,
                   std::size_t* present_out);
  /// Self-healing mode (§6.2): table validation repairs invalid entries
  /// (clearing them so demand paging re-establishes the mapping) instead of
  /// crashing the domain.
  void set_heal_mode(bool on) { heal_mode_ = on; }
  bool validate_l2(hw::Cpu& cpu, Domain& d, hw::Pfn table, hw::Cycles per_pte,
                   std::size_t* present_out);

  // --- hypercalls ---
  void hc_mmu_update(hw::Cpu& cpu, DomainId dom,
                     std::span<const pv::PteUpdate> updates);
  /// The "writable page tables" trap-&-emulate path for a single PTE write.
  void hc_pte_write_emulate(hw::Cpu& cpu, DomainId dom, hw::PhysAddr pte_addr,
                            hw::Pte value);
  void hc_pin_table(hw::Cpu& cpu, DomainId dom, hw::Pfn table, pv::PtLevel level);
  void hc_unpin_table(hw::Cpu& cpu, DomainId dom, hw::Pfn table);
  void hc_write_cr3(hw::Cpu& cpu, DomainId dom, hw::Pfn root);
  void hc_set_trap_table(hw::Cpu& cpu, DomainId dom, hw::TableToken guest_idt);
  void hc_load_guest_gdt(hw::Cpu& cpu, DomainId dom, hw::TableToken guest_gdt);
  void hc_stack_switch(hw::Cpu& cpu, DomainId dom);
  void hc_flush_tlb(hw::Cpu& cpu, DomainId dom);
  void hc_flush_tlb_page(hw::Cpu& cpu, DomainId dom, hw::VirtAddr va);
  void hc_set_virq_mask(hw::Cpu& cpu, DomainId dom, bool enabled);
  void hc_send_ipi(hw::Cpu& cpu, DomainId dom, std::uint32_t dst,
                   std::uint8_t vector, std::uint32_t payload);

  // --- infrastructure ---
  EventChannels& event_channels() { return evtchn_; }
  GrantTable& grant_table() { return gnttab_; }
  BlockBackend& blk_backend() { return *blkback_; }
  NetBackend& net_backend() { return *netback_; }

  void on_trap(hw::Cpu& cpu, const hw::TrapInfo& info) override;

  HvStats& stats() { return stats_; }

 private:
  /// Point the direct-map PTE of `pfn` at `writable` and track the frame
  /// in protected_frames_ (uncharged: the callers charge the flip).
  void rewrite_direct_map_pte(kernel::Kernel& k, hw::Pfn pfn, bool writable);

  class HypercallFrame;
  /// Run `fn` at ring 0 (the hypercall has trapped into the hypervisor).
  template <typename Fn>
  void at_ring0(hw::Cpu& cpu, Fn&& fn) {
    const hw::Ring prev = cpu.cpl();
    cpu.set_cpl(hw::Ring::kRing0);
    fn();
    cpu.set_cpl(prev);
  }
  /// Why `value` may not be installed as an L1 PTE for `d`, or nullptr if
  /// it may. Inline: validate_l1's per-entry loop asks it of every entry.
  const char* pte_value_violation(const Domain& d, hw::Pte value) const {
    if (!value.present()) return nullptr;
    const hw::Pfn target = value.pfn();
    if (target >= page_info_.size()) return "PTE targets nonexistent frame";
    const PageInfo pi = page_info_.at(target);
    if (pi.owner == kDomHypervisor) return "PTE maps a hypervisor frame";
    if (pi.owner != d.id()) return "PTE maps a frame owned by another domain";
    if (value.writable() &&
        (pi.type == PageType::kL1 || pi.type == PageType::kL2))
      return "writable mapping of a page-table frame";
    return nullptr;
  }
  /// Level-aware validation of a single table update: the rules differ for
  /// entries inside an L1 (ownership, no writable PT mappings) and an L2
  /// (must reference validated L1s / the hypervisor's reserved template).
  bool validate_update(Domain& d, hw::PhysAddr pte_addr, hw::Pte value,
                       std::string* why);

  hw::Machine& machine_;
  State state_ = State::kCold;
  hw::Pfn reserved_first_ = 0;
  std::size_t reserved_count_ = 0;
  std::vector<std::pair<std::uint32_t, hw::Pte>> vmm_pdes_;
  hw::TableToken idt_token_{0x100};
  hw::TableToken gdt_token_{0x101};

  PageInfoTable page_info_;
  std::vector<std::unique_ptr<Domain>> domains_;
  DomainId next_dom_ = 0;

  EventChannels evtchn_;
  GrantTable gnttab_;
  std::unique_ptr<BlockBackend> blkback_;
  std::unique_ptr<NetBackend> netback_;

  struct GuestBinding {
    kernel::Kernel* kernel = nullptr;
    DomainId dom = kDomInvalid;
  };
  std::vector<GuestBinding> guest_on_cpu_;

  std::unordered_set<hw::Pfn> protected_frames_;
  bool heal_mode_ = false;
  HvStats stats_;
};

}  // namespace mercury::vmm
