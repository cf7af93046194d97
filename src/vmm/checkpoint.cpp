#include "vmm/checkpoint.hpp"

#include <array>
#include <cstring>

#include "core/fault_inject.hpp"
#include "hw/costs.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mercury::vmm {

namespace {

/// Whether two pages hold the same bytes; nullptr is a page of zeros.
bool same_page(const std::uint8_t* a, const std::uint8_t* b) {
  static constexpr std::array<std::uint8_t, hw::kPageSize> kZeros{};
  if (a == b) return true;  // two zero pages
  return std::memcmp(a != nullptr ? a : kZeros.data(),
                     b != nullptr ? b : kZeros.data(), hw::kPageSize) == 0;
}

}  // namespace

Snapshot Checkpointer::take(hw::Cpu& cpu, Hypervisor& hv, DomainId dom) {
  Domain& d = hv.domain(dom);
  const hw::PhysicalMemory& mem = hv.machine().memory();
  Snapshot snap;
  snap.dom = dom;
  snap.first_frame = d.first_frame();
  snap.frame_count = d.frame_count();
  snap.taken_at = cpu.now();
  MERC_CHECK(snap.frame_count < Snapshot::kZeroPage);
  // Size the page store once: a fully written domain still copies each
  // page once, with no zero-fill and no regrowth.
  std::size_t resident = 0;
  for (std::size_t i = 0; i < snap.frame_count; ++i)
    if (mem.frame_bytes(snap.first_frame + static_cast<hw::Pfn>(i)) != nullptr)
      ++resident;
  snap.data.reserve(resident * hw::kPageSize);
  snap.slot.assign(snap.frame_count, Snapshot::kZeroPage);
  // The capture is a checkpoint-copy stop. A fault here throws away the
  // partial snapshot (it is caller-local) and unwinds the interval at the
  // fault's clock; the domain's memory was only read, so retry is
  // trivially safe.
  const obs::Interval capture(cpu, obs::IntervalKind::kCheckpointCapture,
                              snap.frame_count);
  core::probed_runs(
      cpu, core::FaultSite::kCheckpointCapture, snap.frame_count,
      [&](std::size_t first, std::size_t n) {
        cpu.charge(n * hw::costs::kPageCopy);
        for (std::size_t i = first; i < first + n; ++i) {
          const std::uint8_t* page =
              mem.frame_bytes(snap.first_frame + static_cast<hw::Pfn>(i));
          if (page == nullptr) continue;
          snap.slot[i] =
              static_cast<std::uint32_t>(snap.data.size() / hw::kPageSize);
          snap.data.insert(snap.data.end(), page, page + hw::kPageSize);
        }
      });
  for (std::size_t v = 0; v < d.num_vcpus(); ++v) snap.vcpus.push_back(d.vcpu(v));
  return snap;
}

void Checkpointer::restore(hw::Cpu& cpu, Hypervisor& hv, const Snapshot& snap) {
  Domain& d = hv.domain(snap.dom);
  MERC_CHECK_MSG(d.first_frame() == snap.first_frame &&
                     d.frame_count() == snap.frame_count,
                 "snapshot does not match the domain's memory layout");
  hw::PhysicalMemory& mem = hv.machine().memory();
  // The write-back is a checkpoint-copy stop. A fault here unwinds the
  // interval at the fault's clock and leaves the domain half-restored. Restore is a full-image
  // rewrite, hence idempotent: the supervising arc retries (re-running this
  // loop from frame 0) or rolls back to an undo snapshot — it never leaves
  // the machine in this state. A zero page is stored as a clear, so backing
  // the domain never wrote stays unmaterialized.
  const obs::Interval apply(cpu, obs::IntervalKind::kRestoreApply,
                            snap.frame_count);
  core::probed_runs(cpu, core::FaultSite::kRestoreApply, snap.frame_count,
                    [&](std::size_t first, std::size_t n) {
                      cpu.charge(n * hw::costs::kPageCopy);
                      for (std::size_t i = first; i < first + n; ++i)
                        mem.write_frame(
                            snap.first_frame + static_cast<hw::Pfn>(i),
                            snap.frame(i));
                    });
  for (std::size_t v = 0; v < snap.vcpus.size() && v < d.num_vcpus(); ++v)
    d.vcpu(v) = snap.vcpus[v];
  // Every cached translation may now be stale.
  for (std::size_t c = 0; c < hv.machine().num_cpus(); ++c) {
    hv.machine().cpu(c).tlb().flush_global();
    cpu.charge(hw::costs::kTlbFlushAll);
  }
}

bool Checkpointer::matches(Hypervisor& hv, const Snapshot& snap) {
  const hw::PhysicalMemory& mem = hv.machine().memory();
  for (std::size_t i = 0; i < snap.frame_count; ++i)
    if (!same_page(mem.frame_bytes(snap.first_frame + static_cast<hw::Pfn>(i)),
                   snap.frame(i)))
      return false;
  return true;
}

}  // namespace mercury::vmm
