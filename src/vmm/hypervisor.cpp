#include "vmm/hypervisor.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "hw/costs.hpp"
#include "kernel/kernel.hpp"
#include "kernel/layout.hpp"
#include "obs/obs.hpp"
#include "pv/costs.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mercury::vmm {

using core::probed_runs;
using kernel::Kernel;

namespace {

/// The entry of a frame of plain RAM owned by `owner`, as a rebuild or a
/// boot-time initialization leaves it.
constexpr PageInfo plain_ram(DomainId owner) {
  return PageInfo{owner, PageType::kWritable, 0, 1, false};
}

/// Whether `shard` is uniform plain RAM of `dom`: no L1 entry mapping one
/// of its frames can violate, writable or not.
bool plain_ram_shard(const PageInfoTable& t, std::size_t shard, DomainId dom) {
  const PageInfo* v = t.uniform_value(shard);
  return v != nullptr && v->owner == dom && v->type != PageType::kL1 &&
         v->type != PageType::kL2;
}

/// Page table `table`'s 4 KB, read in place: its backing, or a zero page
/// when the frame was never materialized.
const std::uint8_t* table_bytes(const hw::PhysicalMemory& mem, hw::Pfn table) {
  static constexpr std::uint8_t kZeroPage[hw::kPageSize] = {};
  const std::uint8_t* bytes = mem.frame_bytes(table);
  return bytes != nullptr ? bytes : kZeroPage;
}

/// Entry `e` of a table read in place.
std::uint32_t entry_at(const std::uint8_t* table, std::uint32_t e) {
  std::uint32_t raw = 0;
  std::memcpy(&raw, table + e * sizeof raw, sizeof raw);
  return raw;
}

/// Whether every entry is present and entry e maps frame `base` + e (one
/// branch-free pass, so it vectorizes).
bool maps_consecutive(const std::uint8_t* table, hw::Pfn base) {
  std::uint32_t mismatch = 0;
  for (std::uint32_t e = 0; e < hw::kPtEntries; ++e) {
    const std::uint32_t raw = entry_at(table, e);
    mismatch |= ((raw >> hw::kPageShift) ^ (base + e)) |
                (~raw & hw::Pte::kPresent);
  }
  return mismatch == 0;
}

}  // namespace

Hypervisor::Hypervisor(hw::Machine& machine)
    : machine_(machine),
      page_info_(machine.memory().total_frames()),
      guest_on_cpu_(machine.num_cpus()) {}

Hypervisor::~Hypervisor() = default;

void Hypervisor::warm_up() {
  MERC_CHECK_MSG(state_ == State::kCold, "warm_up called twice");
  const std::size_t total = machine_.memory().total_frames();
  reserved_count_ =
      std::min<std::size_t>(kernel::kVmmRegionBytes / hw::kPageSize, total / 8);
  reserved_first_ = static_cast<hw::Pfn>(total - reserved_count_);
  machine_.frames().reserve_range(reserved_first_, reserved_count_);

  // Build the reserved-region mappings: L1 tables (carved from the reserved
  // frames themselves) mapping the VMM's memory at kVmmBase, ring-0 only.
  auto& mem = machine_.memory();
  const std::size_t l1_needed =
      (reserved_count_ + hw::kPtEntries - 1) / hw::kPtEntries;
  std::size_t mapped = 0;
  for (std::size_t t = 0; t < l1_needed; ++t) {
    const hw::Pfn l1 = reserved_first_ + static_cast<hw::Pfn>(t);
    std::array<std::uint32_t, hw::kPtEntries> table{};
    for (std::uint32_t e = 0; e < hw::kPtEntries && mapped < reserved_count_;
         ++e, ++mapped) {
      hw::Pte pte = hw::make_pte(reserved_first_ + static_cast<hw::Pfn>(mapped),
                                 /*writable=*/true, /*user=*/false,
                                 /*global=*/true);
      pte.set_flag(hw::Pte::kVmmOnly, true);
      table[e] = pte.raw;
    }
    mem.write_frame(l1, reinterpret_cast<const std::uint8_t*>(table.data()));
    hw::Pte pde = hw::make_pte(l1, /*writable=*/true, /*user=*/false,
                               /*global=*/true);
    pde.set_flag(hw::Pte::kVmmOnly, true);
    vmm_pdes_.emplace_back(hw::pde_index(kernel::kVmmBase) +
                               static_cast<std::uint32_t>(t),
                           pde);
  }

  blkback_ = std::make_unique<BlockBackend>(machine_, evtchn_, gnttab_, 0);
  netback_ = std::make_unique<NetBackend>(machine_, evtchn_, gnttab_, 0);
  state_ = State::kDormant;
  page_info_.set_valid(false);
}

// --- domains -----------------------------------------------------------------

DomainId Hypervisor::create_domain(std::string name, Kernel* guest,
                                   hw::Pfn first_frame, std::size_t frame_count,
                                   bool privileged, std::size_t num_vcpus) {
  MERC_CHECK(state_ != State::kCold);
  // Ownership layout is changing: a table retained across a detach no
  // longer describes the machine (no-op when nothing is retained).
  page_info_.poison_retention();
  const DomainId id = next_dom_++;
  domains_.push_back(std::make_unique<Domain>(id, std::move(name), guest,
                                              first_frame, frame_count,
                                              privileged, num_vcpus));
  return id;
}

void Hypervisor::destroy_domain(DomainId id) {
  auto it = std::find_if(domains_.begin(), domains_.end(),
                         [&](const auto& d) { return d->id() == id; });
  MERC_CHECK_MSG(it != domains_.end(), "destroy of unknown domain " << id);
  page_info_.poison_retention();
  domains_.erase(it);
  for (auto& gb : guest_on_cpu_)
    if (gb.dom == id) gb = GuestBinding{};
}

Domain* Hypervisor::find_domain(DomainId id) {
  for (auto& d : domains_)
    if (d->id() == id) return d.get();
  return nullptr;
}

Domain& Hypervisor::domain(DomainId id) {
  Domain* d = find_domain(id);
  MERC_CHECK_MSG(d != nullptr, "unknown domain " << id);
  return *d;
}

std::size_t Hypervisor::num_domains() const { return domains_.size(); }

void Hypervisor::crash_domain(DomainId id, std::string reason) {
  Domain& d = domain(id);
  if (d.crashed) return;
  d.crashed = true;
  d.crash_reason = std::move(reason);
  ++stats_.domains_crashed;
  util::log_warn("vmm", "domain ", d.name(), " crashed: ", d.crash_reason);
}

void Hypervisor::set_guest_on_cpu(std::uint32_t cpu, Kernel* k, DomainId dom) {
  MERC_CHECK(cpu < guest_on_cpu_.size());
  guest_on_cpu_[cpu] = GuestBinding{k, dom};
}

// --- validation ----------------------------------------------------------------

// The scans charge per_pte for every entry up to the one they stop at; the
// clock is not read in between, so the charge is taken in one piece.

bool Hypervisor::validate_l1(hw::Cpu& cpu, Domain& d, hw::Pfn table,
                             hw::Cycles per_pte, std::size_t* present_out) {
  // The heal path clears only entries the scan has already read, so reading
  // the table in place sees what a copy would.
  const std::uint8_t* entries = table_bytes(machine_.memory(), table);
  // Bulk check: a table whose entries are all present and map consecutive
  // frames, all in uniform shards of plain RAM that `d` owns, has no entry
  // pte_value_violation could reject, so it passes with the per-entry
  // loop's count and charge.
  const hw::Pfn base = hw::Pte{entry_at(entries, 0)}.pfn();
  if (base + hw::kPtEntries <= page_info_.size() &&
      plain_ram_shard(page_info_, page_info_.shard_of(base), d.id()) &&
      plain_ram_shard(page_info_,
                      page_info_.shard_of(base + hw::kPtEntries - 1), d.id()) &&
      maps_consecutive(entries, base)) {
    stats_.pte_validations += hw::kPtEntries;
    cpu.charge(hw::kPtEntries * per_pte);
    if (present_out) *present_out = hw::kPtEntries;
    return true;
  }
  std::size_t present = 0;
  std::uint64_t validated = 0;
  for (std::uint32_t e = 0; e < hw::kPtEntries; ++e) {
    const hw::Pte pte{entry_at(entries, e)};
    if (!pte.present()) continue;
    ++present;
    ++validated;
    const char* why = pte_value_violation(d, pte);
    if (why == nullptr) continue;
    if (heal_mode_) {
      // Repair: clear the tainted entry; a later fault re-establishes it.
      machine_.memory().write_u32(hw::addr_of(table) + e * 4, 0);
      cpu.charge(hw::costs::kMemAccess);
      ++stats_.entries_healed;
      --present;
      continue;
    }
    stats_.pte_validations += validated;
    cpu.charge((e + 1) * per_pte);
    crash_domain(d.id(), std::string("L1 validation: ") + why);
    return false;
  }
  stats_.pte_validations += validated;
  cpu.charge(hw::kPtEntries * per_pte);
  if (present_out) *present_out = present;
  return true;
}

bool Hypervisor::validate_l2(hw::Cpu& cpu, Domain& d, hw::Pfn table,
                             hw::Cycles per_pte, std::size_t* present_out) {
  const std::uint8_t* entries = table_bytes(machine_.memory(), table);
  std::size_t present = 0;
  const PageInfoTable& pit = page_info_;
  const std::uint32_t vmm_pde_start = hw::pde_index(kernel::kVmmBase);
  for (std::uint32_t e = 0; e < hw::kPtEntries; ++e) {
    const hw::Pte pde{entry_at(entries, e)};
    if (!pde.present()) continue;
    ++present;
    if (e >= vmm_pde_start) {
      // Reserved region: must match the hypervisor-published template.
      const auto it = std::find_if(
          vmm_pdes_.begin(), vmm_pdes_.end(),
          [&](const auto& p) { return p.first == e; });
      if (it == vmm_pdes_.end() || it->second.raw != pde.raw) {
        stats_.pte_validations += present;
        cpu.charge((e + 1) * per_pte);
        crash_domain(d.id(), "L2 validation: tampered VMM reserved PDE");
        return false;
      }
      continue;
    }
    const hw::Pfn l1 = pde.pfn();
    if (l1 >= pit.size() || pit.at(l1).type != PageType::kL1) {
      stats_.pte_validations += present;
      cpu.charge((e + 1) * per_pte);
      crash_domain(d.id(), "L2 validation: PDE references a non-L1 frame");
      return false;
    }
  }
  stats_.pte_validations += present;
  cpu.charge(hw::kPtEntries * per_pte);
  if (present_out) *present_out = present;
  return true;
}

// --- adopt / release (Mercury's heavy lifting) -----------------------------------
//
// The switch engine runs the range-based shard functions below across its
// crew. The whole-range entry points (rebuild_page_info /
// type_and_protect_tables, and adopt_running_os around them) run one shard
// spanning the whole range on one CPU, with the kAdopt* fault points; they
// serve migration admission, eager priming and detach rollback.

DomainId Hypervisor::begin_adopt(Kernel& k) {
  MERC_CHECK_MSG(state_ == State::kDormant, "adopt while not dormant");
  ++stats_.adopts;
  MERC_COUNT("vmm.adopts");
  // Reuse an existing domain record for this kernel if one exists.
  DomainId id = kDomInvalid;
  for (auto& d : domains_)
    if (d->guest() == &k) id = d->id();
  if (id == kDomInvalid)
    id = create_domain(k.name(), &k, k.base_pfn(), k.pool().owned_count(),
                       /*privileged=*/true, machine_.num_cpus());
  return id;
}

void Hypervisor::init_reserved_page_info() {
  page_info_.begin_rebuild_epoch();
  page_info_.fill(reserved_first_, reserved_count_, plain_ram(kDomHypervisor));
  page_info_.reset_shard_counters();
}

void Hypervisor::adopt_rebuild_shard(hw::Cpu& cpu, DomainId id, hw::Pfn first,
                                     std::size_t count, core::FaultSite site) {
  if (count != 0)
    MERC_FLIGHT(cpu, kShardRange, "vmm.adopt_rebuild_shard", count, first,
                first + static_cast<hw::Pfn>(count - 1));
  probed_runs(cpu, site, count, [&](std::size_t i, std::size_t n) {
    cpu.charge(n * pv::costs::kPerFrameInfoRebuild);
    page_info_.fill(first + static_cast<hw::Pfn>(i), n, plain_ram(id),
                    PageInfoTable::Note::kRebuilt);
  });
}

void Hypervisor::adopt_dirty_rebuild_shard(hw::Cpu& cpu, DomainId id,
                                           std::span<const hw::Pfn> frames,
                                           core::FaultSite site) {
  if (!frames.empty())
    MERC_FLIGHT(cpu, kShardRange, "vmm.adopt_dirty_rebuild_shard",
                frames.size(), frames.front(), frames.back());
  probed_runs(cpu, site, frames.size(), [&](std::size_t first, std::size_t n) {
    const auto run = frames.subspan(first, n);
    cpu.charge(n * pv::costs::kPerFrameInfoRebuild);
    const auto reserved = [&](hw::Pfn pfn) {
      return pfn >= reserved_first_ &&
             pfn < reserved_first_ + static_cast<hw::Pfn>(reserved_count_);
    };
    // One fill per stretch of frames on the same side of the reserved
    // region's boundary.
    for (std::size_t i = 0; i < run.size();) {
      const bool r = reserved(run[i]);
      std::size_t j = i + 1;
      while (j < run.size() && reserved(run[j]) == r) ++j;
      page_info_.fill(run.subspan(i, j - i), plain_ram(r ? kDomHypervisor : id),
                      PageInfoTable::Note::kDirtyRebuilt);
      i = j;
    }
  });
}

void Hypervisor::adopt_trusted_sweep_shard(hw::Cpu& cpu, std::size_t frames) {
  // Eager tracking kept the table fresh, but the VMM still cross-checks
  // ownership with a light sweep (1 cycle a frame) before enforcing
  // isolation on it.
  if (frames != 0)
    MERC_FLIGHT(cpu, kShardRange, "vmm.adopt_trusted_sweep_shard", frames);
  cpu.charge(frames);
}

std::vector<std::pair<hw::Pfn, PageType>> Hypervisor::collect_tables(Kernel& k) {
  // Discover every page-table frame (uncharged: pointer chasing over kernel
  // metadata, negligible against the per-frame protection flips).
  std::vector<std::pair<hw::Pfn, PageType>> tables;
  for (const hw::Pfn l1 : k.kernel_l1_frames())
    tables.emplace_back(l1, PageType::kL1);
  k.for_each_task([&](kernel::Task& t) {
    if (!t.aspace) return;
    for (const hw::Pfn pt : t.aspace->page_table_frames()) {
      if (pt == t.aspace->page_directory()) continue;
      tables.emplace_back(pt, PageType::kL1);
    }
  });
  tables.emplace_back(k.kernel_pd(), PageType::kL2);
  k.for_each_task([&](kernel::Task& t) {
    if (t.aspace) tables.emplace_back(t.aspace->page_directory(), PageType::kL2);
  });
  return tables;
}

void Hypervisor::adopt_protect_shard(
    hw::Cpu& cpu, DomainId id, Kernel& k,
    std::span<const std::pair<hw::Pfn, PageType>> tables,
    core::FaultSite site) {
  (void)id;
  if (!tables.empty())
    MERC_FLIGHT(cpu, kShardRange, "vmm.adopt_protect_shard", tables.size(),
                tables.front().first, tables.back().first);
  probed_runs(cpu, site, tables.size(), [&](std::size_t first, std::size_t n) {
    const auto run = tables.subspan(first, n);
    cpu.charge(n * pv::costs::kPerPtBatchFlip);
    MERC_COUNT_N("vmm.pt_protection_flips", n);
    for (const auto& [pfn, type] : run) {
      PageInfo& pi = page_info_.at(pfn);
      pi.type = type;
      pi.pinned = true;
      pi.type_count = 1;
      rewrite_direct_map_pte(k, pfn, false);
    }
    page_info_.note_typed(run);
  });
}

void Hypervisor::adopt_validate_shard(
    hw::Cpu& cpu, DomainId id,
    std::span<const std::pair<hw::Pfn, PageType>> tables, PageType level) {
  Domain& d = domain(id);
  if (!tables.empty())
    MERC_FLIGHT(cpu, kShardRange, "vmm.adopt_validate_shard", tables.size(),
                tables.front().first, tables.back().first);
  for (const auto& [pfn, type] : tables) {
    if (type != level) continue;
    if (level == PageType::kL1)
      validate_l1(cpu, d, pfn, pv::costs::kPerPtePinScan, nullptr);
    else
      validate_l2(cpu, d, pfn, pv::costs::kPerPtePinScan, nullptr);
  }
}

void Hypervisor::finish_adopt(DomainId id, Kernel& k) {
  // The table is live again: whatever retention state the detach left
  // behind has been consumed (warm path) or superseded (cold path).
  page_info_.set_retained(false);
  page_info_.set_valid(true);
  state_ = State::kActive;
  for (std::size_t c = 0; c < machine_.num_cpus(); ++c)
    set_guest_on_cpu(static_cast<std::uint32_t>(c), &k, id);
  take_traps();
}

void Hypervisor::begin_release(DomainId id) {
  MERC_CHECK_MSG(state_ == State::kActive, "release while not active");
  MERC_CHECK(domain(id).guest() != nullptr);
  ++stats_.releases;
  MERC_COUNT("vmm.releases");
}

std::vector<hw::Pfn> Hypervisor::protected_frames_snapshot() const {
  std::vector<hw::Pfn> frames(protected_frames_.begin(),
                              protected_frames_.end());
  std::sort(frames.begin(), frames.end());
  return frames;
}

void Hypervisor::release_unprotect_shard(hw::Cpu& cpu, Kernel& k,
                                         std::span<const hw::Pfn> frames,
                                         core::FaultSite site) {
  if (!frames.empty())
    MERC_FLIGHT(cpu, kShardRange, "vmm.release_unprotect_shard", frames.size(),
                frames.front(), frames.back());
  probed_runs(cpu, site, frames.size(), [&](std::size_t first, std::size_t n) {
    cpu.charge(n * pv::costs::kPerPtBatchFlip);
    MERC_COUNT_N("vmm.pt_protection_flips", n);
    for (const hw::Pfn pfn : frames.subspan(first, n))
      rewrite_direct_map_pte(k, pfn, true);
  });
}

void Hypervisor::finish_release(bool retain_page_info) {
  MERC_CHECK(protected_frames_.empty());
  // Dropping the accounting is O(1): this is why detach is much cheaper
  // than attach (paper §7.4). Retention costs nothing extra — the entry
  // contents are left in place either way; the flag just promises they
  // still describe the machine as of this detach.
  page_info_.invalidate_all();
  page_info_.set_retained(retain_page_info);
  state_ = State::kDormant;
}

void Hypervisor::rebuild_page_info(hw::Cpu& cpu, Domain& d) {
  Kernel* k = d.guest();
  MERC_CHECK(k != nullptr);
  const obs::Interval phase(cpu, obs::IntervalKind::kVmmRebuildPageInfo);
  // Hypervisor's own frames, then the kernel's whole frame range: reset to
  // plain writable RAM. This linear pass over ~all of memory is the paper's
  // dominant attach cost.
  init_reserved_page_info();
  adopt_rebuild_shard(cpu, d.id(), k->base_pfn(), k->pool().owned_count(),
                      core::FaultSite::kAdoptRebuild);
  MERC_COUNT_N("vmm.page_info.frames_reconstructed", k->pool().owned_count());
}

void Hypervisor::type_and_protect_tables(hw::Cpu& cpu, Domain& d, Kernel& k) {
  const obs::Interval phase(cpu, obs::IntervalKind::kVmmTypeAndProtect);
  // Pass 1: discover every page-table frame, set its type, and revoke its
  // writable direct-map mapping. Protection must precede validation so the
  // "no writable mapping of a PT frame" rule holds when pass 2 checks it.
  const auto tables = collect_tables(k);
  adopt_protect_shard(cpu, d.id(), k, tables, core::FaultSite::kAdoptProtect);
  // One shootdown closes the batch of flips; protection must be globally
  // effective before validation checks it.
  if (!tables.empty()) tlb_shootdown_all(cpu);
  // Pass 2: validate (L1s first, then L2s whose entries require L1 typing).
  adopt_validate_shard(cpu, d.id(), tables, PageType::kL1);
  adopt_validate_shard(cpu, d.id(), tables, PageType::kL2);
}

void Hypervisor::forget_frame_range(hw::Pfn first, std::size_t count) {
  // Frames are leaving this machine: retained accounting is stale.
  page_info_.poison_retention();
  for (auto it = protected_frames_.begin(); it != protected_frames_.end();) {
    if (*it >= first && *it < first + count)
      it = protected_frames_.erase(it);
    else
      ++it;
  }
}

void Hypervisor::set_frame_writable(hw::Cpu& cpu, Kernel& k, hw::Pfn pfn,
                                    bool writable) {
  // kPerPtWritabilityFlip: the rewrite plus the per-page shootdown that a
  // bulk batch elides.
  cpu.charge(pv::costs::kPerPtWritabilityFlip);
  MERC_COUNT("vmm.pt_protection_flips");
  rewrite_direct_map_pte(k, pfn, writable);
  // Direct-map entries are global: purge any cached translation, one
  // cross-CPU round for this page.
  for (std::size_t c = 0; c < machine_.num_cpus(); ++c)
    machine_.cpu(c).tlb().flush_page(hw::vpn_of(k.kva_of_frame(pfn)));
}

void Hypervisor::rewrite_direct_map_pte(Kernel& k, hw::Pfn pfn, bool writable) {
  const std::size_t idx = pfn - k.base_pfn();
  const auto& l1s = k.kernel_l1_frames();
  const std::size_t table = idx / hw::kPtEntries;
  MERC_CHECK_MSG(table < l1s.size(), "frame outside kernel direct map");
  const hw::PhysAddr pte_addr =
      hw::addr_of(l1s[table]) + (idx % hw::kPtEntries) * 4;
  hw::Pte pte{machine_.memory().read_u32(pte_addr)};
  MERC_CHECK(pte.present());
  pte.set_flag(hw::Pte::kWritable, writable);
  machine_.memory().write_u32(pte_addr, pte.raw);
  if (writable)
    protected_frames_.erase(pfn);
  else
    protected_frames_.insert(pfn);
}

void Hypervisor::tlb_shootdown_all(hw::Cpu& cpu) {
  {
    // The batch boundary stalls the issuing CPU for the whole shootdown
    // window (the remote flushes are free on this model — their cost is
    // folded into the batch charge), so the stop lands on the issuer.
    const obs::Interval stall(cpu, obs::IntervalKind::kTlbShootdown);
    cpu.charge(pv::costs::kTlbBatchShootdown);
  }
  MERC_COUNT("vmm.tlb_batch_shootdowns");
  for (std::size_t c = 0; c < machine_.num_cpus(); ++c)
    machine_.cpu(c).tlb().flush_all();
}

DomainId Hypervisor::adopt_running_os(hw::Cpu& cpu, Kernel& k,
                                      bool trust_page_info) {
  const DomainId id = begin_adopt(k);
  const obs::Interval phase(cpu, obs::IntervalKind::kVmmAdoptRunningOs);
  Domain& d = domain(id);
  if (!trust_page_info) {
    rebuild_page_info(cpu, d);
  } else {
    MERC_CHECK_MSG(page_info_.valid(),
                   "eager attach without a primed page-info table");
    adopt_trusted_sweep_shard(cpu, k.pool().owned_count());
  }
  type_and_protect_tables(cpu, d, k);
  finish_adopt(id, k);
  return id;
}

void Hypervisor::rollback_adopt(hw::Cpu& cpu, Kernel& k, bool keep_page_info) {
  ++stats_.adopt_rollbacks;
  MERC_COUNT("vmm.adopt_rollbacks");
  const obs::Interval phase(cpu, obs::IntervalKind::kVmmRollbackAdopt);
  // Restore writability of everything the aborted adopt protected. The
  // per-frame probe must not re-fire here (the injector is single-shot);
  // set_frame_writable re-derives the direct-map PTE, so a frame protected
  // before the fault and one never reached are both handled.
  for (const hw::Pfn pfn : std::vector<hw::Pfn>(protected_frames_.begin(),
                                                protected_frames_.end()))
    set_frame_writable(cpu, k, pfn, true);
  // Lazy tracking: the half-built table is garbage, exactly as before the
  // attach began. Eager tracking: the tracker's table was authoritative
  // going in and keeps being maintained from native mode, so it stays valid.
  page_info_.set_valid(keep_page_info);
  state_ = State::kDormant;
  for (auto& gb : guest_on_cpu_)
    if (gb.kernel == &k) gb = GuestBinding{};
  machine_.install_trap_sink(&k);
}

void Hypervisor::reprotect_os(hw::Cpu& cpu, DomainId id, Kernel& k) {
  MERC_CHECK_MSG(state_ == State::kActive, "reprotect while not active");
  ++stats_.reprotects;
  MERC_COUNT("vmm.reprotects");
  const obs::Interval phase(cpu, obs::IntervalKind::kVmmReprotectOs);
  // A detach fault left some page tables writable; re-running the protect
  // pass re-discovers every table, re-protects the unwound ones (already
  // protected frames are flipped to the same value), and re-validates.
  type_and_protect_tables(cpu, domain(id), k);
  for (std::size_t c = 0; c < machine_.num_cpus(); ++c)
    set_guest_on_cpu(static_cast<std::uint32_t>(c), &k, id);
  take_traps();
}

void Hypervisor::take_traps() { machine_.install_trap_sink(this); }

void Hypervisor::bootstrap_activate() {
  MERC_CHECK_MSG(state_ == State::kDormant, "bootstrap_activate needs warm_up");
  page_info_.poison_retention();
  state_ = State::kActive;
  page_info_.fill(reserved_first_, reserved_count_, plain_ram(kDomHypervisor));
  page_info_.set_valid(true);
  take_traps();
}

void Hypervisor::init_domain_memory(Domain& d) {
  // Boot-time initialization of a freshly built domain's frames (no charge:
  // domain construction is off every measured path). Rewrites ownership, so
  // any retained table is stale from here on.
  page_info_.poison_retention();
  page_info_.fill(d.first_frame(), d.frame_count(), plain_ram(d.id()));
}

bool Hypervisor::validate_update(Domain& d, hw::PhysAddr pte_addr, hw::Pte value,
                                 std::string* why) {
  const hw::Pfn container = hw::pfn_of(pte_addr);
  if (container >= page_info_.size()) {
    if (why) *why = "table update outside physical memory";
    return false;
  }
  const PageInfoTable& pit = page_info_;
  const PageInfo ci = pit.at(container);
  if (ci.owner != d.id()) {
    if (why) *why = "table update in a frame not owned by the domain";
    return false;
  }
  if (ci.type == PageType::kL1) {
    const char* violation = pte_value_violation(d, value);
    if (violation != nullptr && why) *why = violation;
    return violation == nullptr;
  }
  if (ci.type == PageType::kL2) {
    if (!value.present()) return true;
    const std::uint32_t index =
        static_cast<std::uint32_t>((pte_addr % hw::kPageSize) / 4);
    if (index >= hw::pde_index(kernel::kVmmBase)) {
      if (why) *why = "guest rewrote a reserved VMM PDE";
      return false;
    }
    const hw::Pfn l1 = value.pfn();
    if (l1 >= pit.size() || pit.at(l1).type != PageType::kL1 ||
        pit.at(l1).owner != d.id()) {
      if (why) *why = "PDE references a frame not validated as L1";
      return false;
    }
    return true;
  }
  if (why) *why = "update of a frame that is not a page table";
  return false;
}

// --- trap routing -----------------------------------------------------------------

void Hypervisor::on_trap(hw::Cpu& cpu, const hw::TrapInfo& info) {
  ++stats_.traps_dispatched;
  cpu.charge(pv::costs::kVmmTrapDispatch);
  const GuestBinding& gb = guest_on_cpu_[cpu.id()];
  MERC_CHECK_MSG(gb.kernel != nullptr,
                 "trap with no guest bound on cpu " << cpu.id() << ": "
                                                    << info.detail);
  // Bounce into the guest kernel's handler at its (deprivileged) ring; the
  // return path costs an iret hypercall on x86-32.
  cpu.charge(pv::costs::kVmmBounceToGuest);
  gb.kernel->guest_trap(cpu, info);
  cpu.charge(pv::costs::kVmmGuestIret);
}

}  // namespace mercury::vmm
