#include "workloads/configs.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mercury::workloads {

const char* system_label(SystemId id) {
  switch (id) {
    case SystemId::kNL: return "N-L";
    case SystemId::kMN: return "M-N";
    case SystemId::kX0: return "X-0";
    case SystemId::kMV: return "M-V";
    case SystemId::kXU: return "X-U";
    case SystemId::kMU: return "M-U";
  }
  return "?";
}

Sut::~Sut() = default;

vmm::Hypervisor* Sut::hypervisor() {
  if (mercury_) return &mercury_->hypervisor();
  return hv_.get();
}

std::unique_ptr<Sut> Sut::create(SystemId id, SutParams params) {
  auto sut = std::unique_ptr<Sut>(new Sut(id));

  hw::MachineConfig mc;
  mc.num_cpus = params.cpus;
  mc.mem_kb = params.machine_mem_kb;
  mc.seed = params.seed;
  mc.nic_addr = params.nic_addr;
  sut->machine_ = std::make_unique<hw::Machine>(mc);
  hw::Machine& m = *sut->machine_;
  m.nic().bind_irq(&m.interrupts(), /*cpu=*/0);

  const std::size_t kernel_frames = (params.kernel_mem_kb * 1024) / hw::kPageSize;
  const std::size_t domu_frames = (params.domu_mem_kb * 1024) / hw::kPageSize;

  switch (id) {
    case SystemId::kNL: {
      // Unmodified native Linux: direct sensitive ops with no VO dispatch
      // charge, no reserved region.
      sut->native_vo_ = std::make_unique<core::NativeVo>(m);
      sut->primary_kernel_ =
          std::make_unique<kernel::Kernel>(m, *sut->native_vo_, "native-linux");
      hw::Pfn first = 0;
      MERC_CHECK(m.frames().alloc_contiguous(kernel_frames, first));
      sut->primary_kernel_->boot(first, kernel_frames);
      m.install_trap_sink(sut->primary_kernel_.get());
      sut->measured_ = sut->primary_kernel_.get();
      break;
    }

    case SystemId::kMN:
    case SystemId::kMV: {
      core::MercuryConfig cfg;
      cfg.kernel_frames = kernel_frames;
      sut->mercury_ = std::make_unique<core::Mercury>(m, cfg);
      if (id == SystemId::kMV)
        MERC_CHECK(sut->mercury_->switch_to(core::ExecMode::kPartialVirtual));
      sut->measured_ = &sut->mercury_->kernel();
      break;
    }

    case SystemId::kX0: {
      sut->hv_ = std::make_unique<vmm::Hypervisor>(m);
      sut->hv_->warm_up();
      sut->hv_->bootstrap_activate();
      hw::Pfn first = 0;
      MERC_CHECK(m.frames().alloc_contiguous(kernel_frames, first));
      sut->dom0_vo_ = std::make_unique<core::VirtualVo>(
          *sut->hv_, core::VirtualVo::Role::kDriverDomain);
      sut->primary_kernel_ =
          std::make_unique<kernel::Kernel>(m, *sut->dom0_vo_, "xen-dom0");
      const vmm::DomainId dom = sut->hv_->create_domain(
          "dom0", sut->primary_kernel_.get(), first, kernel_frames,
          /*privileged=*/true, params.cpus);
      sut->dom0_vo_->bind(dom);
      sut->hv_->init_domain_memory(sut->hv_->domain(dom));
      for (std::size_t c = 0; c < params.cpus; ++c)
        sut->hv_->set_guest_on_cpu(static_cast<std::uint32_t>(c),
                                   sut->primary_kernel_.get(), dom);
      sut->primary_kernel_->boot(first, kernel_frames, sut->hv_->vmm_pdes());
      sut->measured_ = sut->primary_kernel_.get();
      break;
    }

    case SystemId::kXU: {
      sut->hv_ = std::make_unique<vmm::Hypervisor>(m);
      sut->hv_->warm_up();
      sut->hv_->bootstrap_activate();

      // dom0: the driver domain (not measured; its backend work is charged
      // inline on the CPU serving each split-I/O request).
      const std::size_t dom0_frames = (131'072ull * 1024) / hw::kPageSize;
      hw::Pfn dom0_first = 0;
      MERC_CHECK(m.frames().alloc_contiguous(dom0_frames, dom0_first));
      sut->dom0_vo_ = std::make_unique<core::VirtualVo>(
          *sut->hv_, core::VirtualVo::Role::kDriverDomain);
      sut->primary_kernel_ =
          std::make_unique<kernel::Kernel>(m, *sut->dom0_vo_, "xen-dom0");
      const vmm::DomainId dom0 = sut->hv_->create_domain(
          "dom0", sut->primary_kernel_.get(), dom0_first, dom0_frames,
          /*privileged=*/true, params.cpus);
      sut->dom0_vo_->bind(dom0);
      sut->hv_->init_domain_memory(sut->hv_->domain(dom0));
      for (std::size_t c = 0; c < params.cpus; ++c)
        sut->hv_->set_guest_on_cpu(static_cast<std::uint32_t>(c),
                                   sut->primary_kernel_.get(), dom0);
      sut->primary_kernel_->boot(dom0_first, dom0_frames, sut->hv_->vmm_pdes());

      // domU: the measured production guest with split I/O.
      hw::Pfn domu_first = 0;
      MERC_CHECK(m.frames().alloc_contiguous(domu_frames, domu_first));
      sut->domu_vo_ = std::make_unique<core::VirtualVo>(
          *sut->hv_, core::VirtualVo::Role::kGuestDomain);
      sut->domu_kernel_ =
          std::make_unique<kernel::Kernel>(m, *sut->domu_vo_, "xen-domU");
      const vmm::DomainId domu = sut->hv_->create_domain(
          "domU", sut->domu_kernel_.get(), domu_first, domu_frames,
          /*privileged=*/false, params.cpus);
      sut->domu_vo_->bind(domu);
      sut->hv_->init_domain_memory(sut->hv_->domain(domu));
      sut->hv_->blk_backend().connect_frontend(domu);
      sut->hv_->net_backend().connect_frontend(domu);
      for (std::size_t c = 0; c < params.cpus; ++c)
        sut->hv_->set_guest_on_cpu(static_cast<std::uint32_t>(c),
                                   sut->domu_kernel_.get(), domu);
      sut->domu_kernel_->boot(domu_first, domu_frames, sut->hv_->vmm_pdes());
      sut->measured_ = sut->domu_kernel_.get();
      break;
    }

    case SystemId::kMU: {
      // A self-virtualized Mercury OS attaches its VMM, becomes the driver
      // domain, and hosts an unmodified Xen-Linux guest.
      core::MercuryConfig cfg;
      cfg.kernel_frames = kernel_frames;
      sut->mercury_ = std::make_unique<core::Mercury>(m, cfg);
      MERC_CHECK(sut->mercury_->switch_to(core::ExecMode::kPartialVirtual));
      vmm::Hypervisor& hv = sut->mercury_->hypervisor();

      hw::Pfn domu_first = 0;
      MERC_CHECK(m.frames().alloc_contiguous(domu_frames, domu_first));
      sut->domu_vo_ = std::make_unique<core::VirtualVo>(
          hv, core::VirtualVo::Role::kGuestDomain);
      sut->domu_kernel_ =
          std::make_unique<kernel::Kernel>(m, *sut->domu_vo_, "mercury-domU");
      const vmm::DomainId domu = hv.create_domain(
          "domU", sut->domu_kernel_.get(), domu_first, domu_frames,
          /*privileged=*/false, params.cpus);
      sut->domu_vo_->bind(domu);
      hv.init_domain_memory(hv.domain(domu));
      hv.blk_backend().connect_frontend(domu);
      hv.net_backend().connect_frontend(domu);
      for (std::size_t c = 0; c < params.cpus; ++c)
        hv.set_guest_on_cpu(static_cast<std::uint32_t>(c),
                            sut->domu_kernel_.get(), domu);
      sut->domu_kernel_->boot(domu_first, domu_frames, hv.vmm_pdes());
      sut->measured_ = sut->domu_kernel_.get();
      break;
    }
  }

  MERC_CHECK(sut->measured_ != nullptr && sut->measured_->booted());
  return sut;
}

}  // namespace mercury::workloads
