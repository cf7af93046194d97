// Paper §6.3: online hardware maintenance.
//
// Node alpha runs a production workload natively. To service its hardware,
// alpha self-virtualizes to full-virtual mode, live-migrates its entire OS
// to beta (which self-virtualized to partial-virtual to host it), the
// technician works on the empty machine, and the OS migrates home — the
// workload never stops.
#include <cstdio>

#include "cluster/availability.hpp"
#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "kernel/syscalls.hpp"

using namespace mercury;
using kernel::Sub;
using kernel::Sys;

int main() {
  cluster::Fabric fabric;
  auto& alpha = fabric.add_node("alpha");
  auto& beta = fabric.add_node("beta");
  fabric.connect(alpha, beta);

  long transactions = 0;
  alpha.mercury().kernel().spawn("oltp", [&](Sys& s) -> Sub<void> {
    const hw::VirtAddr working_set = s.mmap(48 * hw::kPageSize, true);
    const int log = s.open("/var/oltp.log", true);
    for (;;) {
      s.touch_pages(working_set, 48, true);
      co_await s.compute_us(250.0);
      co_await s.file_write(log, 4096);
      ++transactions;
    }
  });
  alpha.mercury().kernel().run_for(25 * hw::kCyclesPerMillisecond);
  const long before = transactions;
  std::printf("alpha serving (native): %ld transactions\n", before);

  cluster::AvailabilityTracker availability;
  const cluster::ArcReport report = cluster::migrate_arc(
      alpha, beta, {}, [&](hw::Machine& machine) {
        std::printf("alpha machine empty: swapping the failing fan...\n");
        machine.sensors().clear_anomalies();
      });

  if (!report.success) {
    std::fprintf(stderr, "maintenance failed\n");
    return 1;
  }
  availability.service_down(0, "stop-and-copy windows");
  availability.service_up(report.downtime_cycles);
  availability.finish(report.window_cycles);

  alpha.mercury().kernel().run_for(25 * hw::kCyclesPerMillisecond);
  std::printf("alpha serving again (native): %ld transactions (+%ld)\n",
              transactions, transactions - before);
  std::printf("\nmaintenance window: %.1f ms wall, %.3f ms service downtime "
              "(two stop-and-copy pauses)\n",
              hw::cycles_to_us(report.window_cycles) / 1000.0,
              hw::cycles_to_us(report.downtime_cycles) / 1000.0);
  std::printf("migration out and back: %zu pages in %zu pre-copy rounds\n",
              static_cast<std::size_t>(report.pages_sent),
              static_cast<std::size_t>(report.precopy_rounds));
  std::printf("availability over the window: %.5f\n",
              availability.availability());
  return transactions > before ? 0 : 1;
}
