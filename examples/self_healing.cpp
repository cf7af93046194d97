// Paper §6.2: self-healing. A fault corrupts kernel state (a page-table
// entry ends up pointing into hypervisor memory). A sensor notices the
// anomaly, the OS self-virtualizes, the attached VMM's validation pass
// repairs the tainted entries, and the VMM detaches again — no remote
// repair machine (the Backdoors approach) required.
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

  bool touch_ok = false;
  hw::VirtAddr buf = 0;
  const kernel::Pid pid =
      mercury.kernel().spawn("victim", [&](Sys& s) -> Sub<void> {
        buf = s.mmap(16 * hw::kPageSize, true);
        s.touch_pages(buf, 16, true);
        for (;;) {
          co_await s.sleep_us(2000.0);
          s.touch_pages(buf, 16, true);
          touch_ok = true;
        }
      });
  mercury.kernel().run_for(5 * hw::kCyclesPerMillisecond);
  std::printf("victim process established its working set (pid %d)\n", pid);

  // Fault injection: scribble over one of its page-table entries.
  if (!cluster::inject_pte_corruption(mercury, pid)) {
    std::fprintf(stderr, "could not inject corruption\n");
    return 1;
  }
  std::printf("injected: a PTE now maps hypervisor-owned memory "
              "(tainted kernel state)\n");

  // The healing pass: attach in heal mode, validation repairs, detach.
  vmm::Hypervisor& hv = mercury.hypervisor();
  const std::uint64_t healed_before = hv.stats().entries_healed;
  const cluster::ArcReport report = cluster::self_heal_arc(node);
  const std::uint64_t healed = hv.stats().entries_healed - healed_before;
  std::printf("self-heal: %llu tainted entr%s repaired in %.3f ms "
              "(VMM attached only for the repair)\n",
              static_cast<unsigned long long>(healed),
              healed == 1 ? "y" : "ies",
              hw::cycles_to_us(report.window_cycles) / 1000.0);

  // The victim keeps running: its next touch demand-faults a fresh page in.
  touch_ok = false;
  mercury.kernel().run_for(10 * hw::kCyclesPerMillisecond);
  std::printf("victim alive after repair: %s (mode=%s)\n",
              touch_ok ? "yes" : "no",
              core::exec_mode_name(mercury.mode()));
  return report.success && healed >= 1 && touch_ok ? 0 : 1;
}
