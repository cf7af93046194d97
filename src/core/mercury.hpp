// Mercury: the self-virtualization system facade.
//
// Owns the full stack for one machine: the pre-cached hypervisor (warmed at
// boot, dormant until needed), the kernel wired through a swappable VO, and
// the switch engine. This is the library's main entry point:
//
//   hw::Machine machine({.num_cpus = 2});
//   core::Mercury mercury(machine);
//   mercury.kernel().spawn("app", body);
//   mercury.switch_to(core::ExecMode::kPartialVirtual);   // attach VMM
//   ... live update / checkpoint / migrate ...
//   mercury.switch_to(core::ExecMode::kNative);           // full speed again
#pragma once

#include <memory>

#include "core/eager_tracker.hpp"
#include "core/native_vo.hpp"
#include "core/switch_engine.hpp"
#include "core/virtual_vo.hpp"
#include "kernel/kernel.hpp"
#include "kernel/syscalls.hpp"
#include "vmm/hypervisor.hpp"

namespace mercury::core {

struct MercuryConfig {
  SwitchConfig switch_config{};
  /// Frames granted to the kernel; 0 = everything left after the holdback.
  std::size_t kernel_frames = 0;
  std::string kernel_name = "mercury-linux";
};

class Mercury {
 public:
  explicit Mercury(hw::Machine& machine, MercuryConfig config = {});

  hw::Machine& machine() { return machine_; }
  kernel::Kernel& kernel() { return *kernel_; }
  vmm::Hypervisor& hypervisor() { return *hv_; }
  SwitchEngine& engine() { return *engine_; }
  /// The one native VO: the kernel boots on it and the engine gates on it.
  NativeVo& native_vo() { return *native_vo_; }
  VirtualVo& driver_vo() { return *driver_vo_; }
  VirtualVo& guest_vo() { return *guest_vo_; }
  /// The native VO itself under eager page tracking, null otherwise.
  EagerTrackingVo* eager_vo() { return eager_vo_; }

  ExecMode mode() const { return engine_->mode(); }

  /// Request + drive the kernel until the switch commits.
  bool switch_to(ExecMode target,
                 hw::Cycles budget = 500 * hw::kCyclesPerMillisecond) {
    return engine_->switch_now(target, budget);
  }

 private:
  hw::Machine& machine_;
  MercuryConfig config_;
  std::unique_ptr<vmm::Hypervisor> hv_;
  std::unique_ptr<NativeVo> native_vo_;
  EagerTrackingVo* eager_vo_ = nullptr;
  std::unique_ptr<VirtualVo> driver_vo_;
  std::unique_ptr<VirtualVo> guest_vo_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<SwitchEngine> engine_;
};

}  // namespace mercury::core
