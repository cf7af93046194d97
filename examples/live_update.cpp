// Paper §6.4: live kernel update (the LUCOS scenario without a permanent
// VMM). A buggy kernel policy is patched while applications keep running:
// the VMM is attached only for the update window, then detached.
#include <cstdio>

#include "cluster/depend.hpp"
#include "kernel/syscalls.hpp"

using namespace mercury;
using kernel::Sub;
using kernel::Sys;

int main() {
  cluster::NodeConfig nc;
  nc.mem_kb = 256 * 1024;
  nc.kernel_mem_kb = 128 * 1024;
  cluster::Node node("host", nc);
  core::Mercury& mercury = node.mercury();

  // The "vulnerable" behaviour: the resume-time selector fixup is disabled
  // (a latent kernel bug the vendor shipped a patch for).
  mercury.kernel().set_selector_fixup_enabled(false);

  long progress = 0;
  mercury.kernel().spawn("service", [&](Sys& s) -> Sub<void> {
    for (;;) {
      co_await s.compute_us(300.0);
      ++progress;
    }
  });
  mercury.kernel().run_for(10 * hw::kCyclesPerMillisecond);
  std::printf("service running on kernel with the buggy code path "
              "(fixup=%d), progress=%ld\n",
              mercury.kernel().selector_fixup_enabled(), progress);

  cluster::KernelPatch patch;
  patch.description = "enable saved-selector fixup stub (CVE-mercury-0001)";
  patch.apply_fn = [](kernel::Kernel& k) { k.set_selector_fixup_enabled(true); };

  const cluster::ArcReport report = cluster::live_update_arc(node, patch);
  if (!report.success) {
    std::fprintf(stderr, "live update failed\n");
    return 1;
  }

  mercury.kernel().run_for(10 * hw::kCyclesPerMillisecond);
  std::printf("patched (fixup=%d), service progress=%ld, mode=%s\n",
              mercury.kernel().selector_fixup_enabled(), progress,
              core::exec_mode_name(mercury.mode()));
  std::printf("\nupdate window: attach %.3f ms + patch %.3f ms + detach "
              "%.3f ms = %.3f ms total, no restart, no resident VMM\n",
              hw::cycles_to_us(report.attach_cycles) / 1000.0,
              hw::cycles_to_us(report.service_cycles) / 1000.0,
              hw::cycles_to_us(report.detach_cycles) / 1000.0,
              hw::cycles_to_us(report.window_cycles) / 1000.0);
  return mercury.kernel().selector_fixup_enabled() ? 0 : 1;
}
