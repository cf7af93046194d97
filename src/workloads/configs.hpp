// Builders for the six systems the paper evaluates (§7):
//   N-L  native Linux                      (a NativeVo charging no VO dispatch)
//   M-N  Mercury-Linux, native mode        (NativeVo active, VMM dormant)
//   X-0  Xen domain0                       (always-on VMM, driver domain)
//   M-V  Mercury-Linux, partial-virtual    (attached on demand, driver role)
//   X-U  Xen domainU                       (always-on VMM, split I/O guest)
//   M-U  domainU hosted by a self-virtualized Mercury OS
#pragma once

#include <memory>
#include <string>

#include "core/mercury.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "vmm/hypervisor.hpp"

namespace mercury::workloads {

enum class SystemId : std::uint8_t { kNL, kMN, kX0, kMV, kXU, kMU };

inline constexpr SystemId kAllSystems[] = {SystemId::kNL, SystemId::kMN,
                                           SystemId::kX0, SystemId::kMV,
                                           SystemId::kXU, SystemId::kMU};

const char* system_label(SystemId id);  // "N-L", "M-N", ...

struct SutParams {
  std::size_t cpus = 1;
  std::size_t machine_mem_kb = 2'097'152;  // 2 GB box (paper's testbed)
  std::size_t kernel_mem_kb = 900'000;     // per-variant reservation
  std::size_t domu_mem_kb = 870'000;       // paper: domU gets less (no backends)
  std::uint64_t seed = 1;
  std::uint32_t nic_addr = 0x0A000001;
};

/// A fully booted system-under-test. `kernel()` is the measured kernel
/// (domU's for X-U/M-U, the primary OS otherwise).
class Sut {
 public:
  static std::unique_ptr<Sut> create(SystemId id, SutParams params = {});
  ~Sut();

  SystemId id() const { return id_; }
  const char* label() const { return system_label(id_); }
  hw::Machine& machine() { return *machine_; }
  kernel::Kernel& kernel() { return *measured_; }
  core::Mercury* mercury() { return mercury_.get(); }
  vmm::Hypervisor* hypervisor();

 private:
  explicit Sut(SystemId id) : id_(id) {}

  SystemId id_;
  std::unique_ptr<hw::Machine> machine_;
  // N-L / X-* plumbing:
  std::unique_ptr<core::NativeVo> native_vo_;
  std::unique_ptr<vmm::Hypervisor> hv_;
  std::unique_ptr<core::VirtualVo> dom0_vo_;
  std::unique_ptr<core::VirtualVo> domu_vo_;
  std::unique_ptr<kernel::Kernel> primary_kernel_;
  std::unique_ptr<kernel::Kernel> domu_kernel_;
  // M-* plumbing:
  std::unique_ptr<core::Mercury> mercury_;

  kernel::Kernel* measured_ = nullptr;
};

}  // namespace mercury::workloads
