#include "vmm/migrate.hpp"

#include <vector>

#include "core/fault_inject.hpp"
#include "hw/costs.hpp"
#include "kernel/kernel.hpp"
#include "obs/obs.hpp"
#include "pv/costs.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mercury::vmm {

namespace {

/// Makes `sink` the memory's dirty sink for the guard's lifetime, and puts
/// the previous one back however the scope ends.
class DirtySinkScope {
 public:
  DirtySinkScope(hw::PhysicalMemory& mem, hw::DirtySink* sink)
      : mem_(mem), prev_(mem.dirty_sink()) {
    mem_.set_dirty_sink(sink);
  }
  ~DirtySinkScope() { mem_.set_dirty_sink(prev_); }
  DirtySinkScope(const DirtySinkScope&) = delete;
  DirtySinkScope& operator=(const DirtySinkScope&) = delete;

 private:
  hw::PhysicalMemory& mem_;
  hw::DirtySink* prev_;
};

}  // namespace

MigrationStats LiveMigration::run(Hypervisor& src, DomainId dom, Hypervisor& dst,
                                  const MigrationConfig& config) {
  MigrationStats stats;
  Domain& d = src.domain(dom);
  kernel::Kernel* guest = d.guest();
  MERC_CHECK_MSG(guest != nullptr, "migrating a domain with no guest kernel");
  hw::Machine& src_m = src.machine();
  hw::Machine& dst_m = dst.machine();
  hw::Cpu& scpu = src_m.cpu(0);
  const hw::Cycles t0 = scpu.now();

  // Reserve the target region.
  hw::Pfn new_base = 0;
  if (!dst_m.frames().alloc_contiguous(d.frame_count(), new_base)) {
    util::log_warn("migrate", "target cannot host domain: no contiguous region");
    return stats;
  }
  const hw::Pfn old_base = d.first_frame();
  stats.pages_total = d.frame_count();

  // Ship `n` pages, the i-th from source frame `pfn_at(i)` to its twin in
  // the target region, one kMigrateStream visit before each: map + copy on
  // the source, wire time, and the write on the target image. A frame whose
  // source backing was never materialized arrives as a clear, so stale
  // target bytes read as zeros. pages_sent counts every page that made it
  // across, also when a fault aborts the stream.
  const hw::Cycles per_page = hw::costs::kPageCopy +
                              pv::costs::kGrantMapPerPage / 2 +
                              config.wire_cycles_per_page;
  const auto send = [&](std::size_t n, auto&& pfn_at) {
    core::probed_runs(scpu, core::FaultSite::kMigrateStream, n,
                      [&](std::size_t first, std::size_t count) {
                        scpu.charge(count * per_page);
                        for (std::size_t i = first; i < first + count; ++i) {
                          const hw::Pfn pfn = pfn_at(i);
                          dst_m.memory().write_frame(
                              new_base + (pfn - old_base),
                              src_m.memory().frame_bytes(pfn));
                        }
                        stats.pages_sent += count;
                      });
  };
  const auto send_dirty = [&](const std::vector<hw::Pfn>& dirty) {
    send(dirty.size(), [&](std::size_t i) { return dirty[i]; });
  };

  // Everything from the first page sent to the last admission step is
  // abortable: a thrown fault (injected at kMigrateStream/kMigrateActivate,
  // or a wire failure) unwinds to "the guest still runs on the source, the
  // destination holds nothing" and rethrows for the supervising arc.
  bool moved = false;  // guest->migrate_to(dst) has executed
  DomainId new_dom = kDomInvalid;
  hw::Cycles down0 = 0;
  try {
    // Until the try block ends, on success and on abort alike, every store
    // to the source memory marks the domain's log-dirty bitmap.
    const DirtySinkScope log_stores(src_m.memory(), &d);
    {
      // Pre-copy. Round 0: full copy with log-dirty armed.
      const obs::Interval precopy(scpu, obs::IntervalKind::kMigratePrecopy,
                                  stats.pages_total);
      d.set_log_dirty(true);
      send(d.frame_count(),
           [&](std::size_t i) { return old_base + static_cast<hw::Pfn>(i); });
      stats.rounds = 1;

      // Iterative pre-copy: let the guest run, harvest what it dirtied,
      // resend.
      while (stats.rounds < config.max_rounds) {
        guest->run_for(config.guest_run_per_round);
        // Page-table-visible dirty bits (hardware-set) join the log-dirty
        // set; the stores themselves are already in it.
        guest->for_each_task([&](kernel::Task& t) {
          if (!t.aspace) return;
          std::vector<hw::Pfn> dirty_pfns;
          t.aspace->collect_and_clear_dirty(scpu, &dirty_pfns);
          for (const hw::Pfn pfn : dirty_pfns) d.mark_dirty(pfn);
        });
        // Converged, or out of round budget? Leave the outstanding set in
        // the bitmap: the stop-and-copy below ships it inside the freeze.
        // (Harvesting before this test would clear pages that were then
        // never sent; pre-sending the final round of a non-convergent guest
        // would understate its real stop-and-copy cost.)
        if (d.dirty_count() <= config.stop_threshold_pages) break;
        if (stats.rounds + 1 >= config.max_rounds) break;
        send_dirty(d.harvest_dirty());
        ++stats.rounds;
      }
    }

    // Stop-and-copy: the guest is frozen from here (downtime) to the end of
    // the target's admission, one migrate-stop-copy stop on the source CPU
    // that drives the copy.
    down0 = scpu.now();
    const obs::Interval stopcopy(scpu, obs::IntervalKind::kMigrateStopCopy,
                                 d.dirty_count());
    send_dirty(d.harvest_dirty());
    // Vcpu state + device model handover.
    scpu.charge(20 * hw::kCyclesPerMicrosecond);
    d.set_log_dirty(false);

    // Target side: admit the guest as a new unprivileged domain and rewire
    // it. The admission probes fire only *before* the irreversible
    // protect/rewire point — past create_domain the unwind below can still
    // cleanly destroy the half-admitted domain, but once the destination's
    // page-info rebuild starts mutating protection state the migration must
    // run to completion.
    hw::Cpu& dcpu = dst_m.cpu(0);
    dcpu.advance_to(scpu.now());
    core::fault_point(core::FaultSite::kMigrateActivate, &dcpu);
    guest->migrate_to(dst_m, new_base, dst.vmm_pdes());
    moved = true;
    core::fault_point(core::FaultSite::kMigrateActivate, &dcpu);
    new_dom = dst.create_domain(
        guest->name() + "-migrated", guest, new_base, d.frame_count(),
        /*privileged=*/false, dst_m.num_cpus());
    core::fault_point(core::FaultSite::kMigrateActivate, &dcpu);
    Domain& nd = dst.domain(new_dom);
    dst.rebuild_page_info(dcpu, nd);
    dst.type_and_protect_tables(dcpu, nd, *guest);
    dst.page_info().set_valid(true);
    for (std::size_t c = 0; c < dst_m.num_cpus(); ++c)
      dst.set_guest_on_cpu(static_cast<std::uint32_t>(c), guest, new_dom);
    // Split drivers: the network frontend reconnects on the target *after*
    // migration (paper §5.2); disks ride on networked storage.
    dst.net_backend().disconnect_frontend();
    dst.net_backend().connect_frontend(new_dom);
    dst.blk_backend().disconnect_frontend(dcpu);
    dst.blk_backend().connect_frontend(new_dom);

    // The hypervisor owns the hardware descriptor tables on the target.
    for (std::size_t c = 0; c < dst_m.num_cpus(); ++c) {
      hw::Cpu& cpu = dst_m.cpu(c);
      const hw::Ring prev = cpu.cpl();
      cpu.set_cpl(hw::Ring::kRing0);
      cpu.load_idt(dst.idt_token());
      cpu.load_gdt(dst.gdt_token());
      cpu.set_cpl(prev);
    }
  } catch (...) {
    // Mid-stream abort: put the source back exactly as it was. The guest
    // kernel object either never moved or is re-homed onto its original
    // frames (which were never freed or overwritten); the destination's
    // reservation and any half-admitted domain record are dropped, along
    // with the tables its protect pass may already have write-protected.
    if (new_dom != kDomInvalid) {
      dst.forget_frame_range(new_base, d.frame_count());
      dst.destroy_domain(new_dom);
    }
    // rehome_to, not migrate_to: the source image is still homed at
    // old_base (its frames were never freed or overwritten), so only the
    // kernel's bookkeeping pfns are translated back — rewriting the PTE
    // contents again would double-translate them.
    if (moved) guest->rehome_to(src_m, old_base, src.vmm_pdes());
    d.set_log_dirty(false);
    d.harvest_dirty();  // drop the bitmap so a retry starts clean
    for (std::size_t i = 0; i < d.frame_count(); ++i)
      dst_m.frames().free(new_base + static_cast<hw::Pfn>(i));
    // The open phase already closed as unwound at the fault.
    MERC_FLIGHT(scpu, kMarker, "migrate.abort",
                static_cast<std::uint64_t>(stats.pages_sent),
                scpu.now() - t0);
    util::log_warn("migrate", "aborted mid-stream after ", stats.pages_sent,
                   " pages; source rolled back");
    throw;
  }

  stats.new_domain = new_dom;
  stats.downtime_cycles = scpu.now() - down0;
  stats.total_cycles = scpu.now() - t0;
  stats.success = true;

  // Source side: the frames are returned and the domain record removed.
  // The departing guest's split-driver frontends detach from the source's
  // backends first — leaving them connected would strand event-channel
  // ports pointing at a destroyed domain (the destination's admission step
  // already reconnected the frontends over there).
  if (src.blk_backend().connected()) src.blk_backend().disconnect_frontend(scpu);
  if (src.net_backend().connected()) src.net_backend().disconnect_frontend();
  src.forget_frame_range(old_base, d.frame_count());
  for (std::size_t i = 0; i < d.frame_count(); ++i)
    src_m.frames().free(old_base + static_cast<hw::Pfn>(i));
  src.destroy_domain(dom);
  return stats;
}

}  // namespace mercury::vmm
