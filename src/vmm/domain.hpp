// Domains: the unit of isolation a VMM multiplexes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/pte.hpp"
#include "hw/types.hpp"
#include "vmm/page_info.hpp"

namespace mercury::kernel {
class Kernel;
}

namespace mercury::vmm {

struct VcpuContext {
  std::uint32_t vcpu_id = 0;
  hw::Pfn cr3 = 0;
  hw::TableToken guest_idt{};
  hw::TableToken guest_gdt{};
  bool online = true;
  // Virtual interrupt flag (shared-info event mask).
  bool virq_enabled = true;
};

/// A domain is a dirty sink so that live migration can point its source
/// memory's stores at the domain's log-dirty bitmap.
class Domain final : public hw::DirtySink {
 public:
  Domain(DomainId id, std::string name, kernel::Kernel* guest, hw::Pfn first_frame,
         std::size_t frame_count, bool privileged, std::size_t num_vcpus);

  DomainId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool privileged() const { return privileged_; }
  kernel::Kernel* guest() const { return guest_; }

  hw::Pfn first_frame() const { return first_frame_; }
  std::size_t frame_count() const { return frame_count_; }
  bool owns_frame(hw::Pfn pfn) const {
    return pfn >= first_frame_ && pfn < first_frame_ + frame_count_;
  }

  VcpuContext& vcpu(std::size_t i) { return vcpus_.at(i); }
  std::size_t num_vcpus() const { return vcpus_.size(); }

  // --- log-dirty mode (live migration) ---
  bool log_dirty() const { return log_dirty_; }
  void set_log_dirty(bool on);
  /// Set `pfn`'s bit; a no-op while log-dirty is off or for a frame the
  /// domain does not own.
  void mark_dirty(hw::Pfn pfn);
  void note_dirty(hw::Pfn pfn) override { mark_dirty(pfn); }
  /// Dirty frame list since last harvest; clears the bitmap.
  std::vector<hw::Pfn> harvest_dirty();
  std::size_t dirty_count() const { return dirty_count_; }

  bool crashed = false;
  std::string crash_reason;

 private:
  DomainId id_;
  std::string name_;
  kernel::Kernel* guest_;
  hw::Pfn first_frame_;
  std::size_t frame_count_;
  bool privileged_;
  std::vector<VcpuContext> vcpus_;
  bool log_dirty_ = false;
  std::vector<bool> dirty_bitmap_;
  std::size_t dirty_count_ = 0;
};

}  // namespace mercury::vmm
