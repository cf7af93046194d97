// Paper §6.1: checkpointing and restarting of operating systems.
//
// The pre-cached VMM is attached, snapshots the whole OS domain (memory
// image + vcpu state), and stays attached while the OS runs on. When a
// software failure corrupts the system inside that window, the snapshot is
// restored and verified bit-exact while the VMM still watches, and the VMM
// detaches.
#include <cstdio>

#include "cluster/depend.hpp"
#include "kernel/syscalls.hpp"

using namespace mercury;
using kernel::Sub;
using kernel::Sys;

int main() {
  cluster::NodeConfig nc;
  nc.mem_kb = 192 * 1024;
  nc.kernel_mem_kb = 64 * 1024;
  cluster::Node node("host", nc);
  core::Mercury& mercury = node.mercury();
  hw::Mmu& mmu = node.machine().mmu();

  // A process with recognizable in-memory state. The failure strikes once
  // the VMM is attached and the snapshot is taken: the process scribbles
  // over its own state.
  hw::VirtAddr state_page = 0;
  bool scribbled = false;
  const kernel::Pid pid =
      mercury.kernel().spawn("stateful", [&](Sys& s) -> Sub<void> {
        state_page = s.mmap(hw::kPageSize, true);
        s.touch_pages(state_page, 1, true);
        mmu.write_u32(s.cpu(), state_page, 0xC0FFEE42);
        std::printf("application state written: 0x%08X\n",
                    mmu.read_u32(s.cpu(), state_page));
        while (mercury.mode() == core::ExecMode::kNative)
          co_await s.sleep_us(500.0);
        co_await s.sleep_us(1000.0);
        mmu.write_u32(s.cpu(), state_page, 0xDEADDEAD);
        std::printf("failure injected: state now 0x%08X\n",
                    mmu.read_u32(s.cpu(), state_page));
        scribbled = true;
        for (;;) co_await s.sleep_us(5000.0);
      });
  mercury.kernel().run_for(5 * hw::kCyclesPerMillisecond);

  // Attach -> snapshot -> the OS runs on (and fails) -> restore -> verify
  // -> detach.
  const cluster::ArcReport r = cluster::checkpoint_restart_arc(node);
  std::printf("checkpoint-restart window %.2f ms: attach %.3f ms, snapshot "
              "+ run + restore %.2f ms, detach %.3f ms (VMM attached only "
              "for the window)\n",
              hw::cycles_to_us(r.window_cycles) / 1000.0,
              hw::cycles_to_us(r.attach_cycles) / 1000.0,
              hw::cycles_to_us(r.service_cycles) / 1000.0,
              hw::cycles_to_us(r.detach_cycles) / 1000.0);
  std::printf("memory image bit-exact vs snapshot: %s\n",
              r.verified ? "yes" : "no");

  // Read the state back through the process's page tables.
  hw::Cpu& cpu = node.machine().cpu(0);
  const hw::Ring prev = cpu.cpl();
  cpu.set_cpl(hw::Ring::kRing0);
  cpu.write_cr3(mercury.kernel().find_task(pid)->aspace->page_directory());
  cpu.tlb().flush_global();
  const std::uint32_t recovered = mmu.read_u32(cpu, state_page);
  cpu.set_cpl(prev);
  std::printf("restored: state is 0x%08X again\n", recovered);
  const bool ok =
      r.success && r.verified && scribbled && recovered == 0xC0FFEE42;
  return ok ? 0 : 1;
}
