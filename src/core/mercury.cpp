#include "core/mercury.hpp"

#include "util/assert.hpp"

namespace mercury::core {

namespace {
/// Frames withheld from the kernel (firmware/boot holdback).
constexpr std::size_t kHoldbackFrames = 256;
}  // namespace

Mercury::Mercury(hw::Machine& machine, MercuryConfig config)
    : machine_(machine), config_(std::move(config)) {
  // Pre-cache the VMM: warmed into its reserved region at boot (§4.1), so a
  // later attach is sub-millisecond instead of a multi-second VMM boot.
  hv_ = std::make_unique<vmm::Hypervisor>(machine_);
  hv_->warm_up();

  if (config_.switch_config.eager_page_tracking) {
    auto eager = std::make_unique<EagerTrackingVo>(machine_, *hv_);
    eager_vo_ = eager.get();
    native_vo_ = std::move(eager);
  } else {
    native_vo_ = std::make_unique<NativeVo>(machine_);
  }
  driver_vo_ = std::make_unique<VirtualVo>(*hv_, VirtualVo::Role::kDriverDomain);
  guest_vo_ = std::make_unique<VirtualVo>(*hv_, VirtualVo::Role::kGuestDomain);
  // A Mercury-built kernel pays the VO dispatch costs in every mode.
  native_vo_->set_per_op_charge(pv::costs::kVoPerOpOverhead);
  driver_vo_->set_per_op_charge(pv::costs::kVoPerOpOverhead);
  guest_vo_->set_per_op_charge(pv::costs::kVoPerOpOverhead);

  kernel_ = std::make_unique<kernel::Kernel>(machine_, *native_vo_,
                                             config_.kernel_name);
  kernel_->set_vo_path_tax(pv::costs::kVoPathTax);

  // Grant the kernel everything except the VMM's reservation and a small
  // holdback; the unified layout reserves the VMM's PDEs in every address
  // space from the start (§3.2.2).
  hw::Pfn first = 0;
  std::size_t grant = machine_.frames().frames_free() > kHoldbackFrames
                          ? machine_.frames().frames_free() - kHoldbackFrames
                          : machine_.frames().frames_free();
  if (config_.kernel_frames != 0)
    grant = std::min(grant, config_.kernel_frames);
  MERC_CHECK(machine_.frames().alloc_contiguous(grant, first));
  kernel_->boot(first, grant, hv_->vmm_pdes());
  machine_.install_trap_sink(kernel_.get());

  if (eager_vo_ != nullptr) {
    // Eager tracking needs a dom0 record + primed table before first attach;
    // boot ran untracked, as it would on a plain native VO.
    const vmm::DomainId dom = hv_->create_domain(
        config_.kernel_name, kernel_.get(), kernel_->base_pfn(),
        kernel_->pool().owned_count(), /*privileged=*/true,
        machine_.num_cpus());
    eager_vo_->bind(machine_.cpu(0), *kernel_, dom);
  }

  engine_ = std::make_unique<SwitchEngine>(*kernel_, *hv_, *native_vo_,
                                           *driver_vo_, *guest_vo_,
                                           config_.switch_config);
}

}  // namespace mercury::core
