// Pre-copy live migration of a domain between two machines (Clark et al.
// style, as used by the paper's online-maintenance and HPC-availability
// scenarios §6.3/§6.5).
//
// Rounds of dirty-page transfer run while the guest keeps executing; the
// final stop-and-copy freezes the guest (the downtime the stats report),
// ships the residue and the vcpu state, and re-homes the kernel on the
// target via Kernel::migrate_to.
//
// The log-dirty set is the domain's own bitmap, fed from two sources: the
// PTE dirty bits of the guest's user mappings, harvested each round, and
// every store to the source memory, which reaches the domain as the
// memory's dirty sink while the migration runs. The second catches what no
// PTE dirty bit shows: kernel writes through the direct map, page-table
// updates among them, and device stores.
#pragma once

#include <cstdint>

#include "hw/devices/nic.hpp"
#include "vmm/hypervisor.hpp"

namespace mercury::vmm {

struct MigrationConfig {
  std::size_t max_rounds = 5;
  std::size_t stop_threshold_pages = 64;  // residue small enough to stop
  hw::Cycles guest_run_per_round = 20 * hw::kCyclesPerMillisecond;
  hw::Cycles wire_cycles_per_page = 4096 * 3 + 40 * hw::kCyclesPerMicrosecond / 10;
};

struct MigrationStats {
  bool success = false;
  DomainId new_domain = kDomInvalid;  // the domain id on the target
  std::size_t rounds = 0;
  std::size_t pages_sent = 0;
  std::size_t pages_total = 0;
  hw::Cycles total_cycles = 0;
  hw::Cycles downtime_cycles = 0;
};

class LiveMigration {
 public:
  /// Migrate `dom` (whose guest kernel keeps running between rounds via its
  /// own stepper) from `src` to `dst`. On success the guest kernel object is
  /// re-homed on dst's machine as a new (unprivileged) domain of `dst`, and
  /// the domain record is removed from `src`.
  static MigrationStats run(Hypervisor& src, DomainId dom, Hypervisor& dst,
                            const MigrationConfig& config = {});
};

}  // namespace mercury::vmm
