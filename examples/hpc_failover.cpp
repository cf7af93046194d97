// Paper §6.5: improving the availability of HPC clusters.
//
// Hardware health monitors watch temperature/fan/voltage. When they predict
// a failure, the OS immediately self-virtualizes to full-virtual mode and
// migrates itself to a healthy node — the long-running computation is
// completely shielded from the failure.
#include <cstdio>

#include "cluster/depend.hpp"
#include "cluster/failure.hpp"
#include "kernel/syscalls.hpp"

using namespace mercury;
using kernel::Sub;
using kernel::Sys;

int main() {
  cluster::Fabric fabric;
  auto& n1 = fabric.add_node("hpc-node1");
  auto& n2 = fabric.add_node("hpc-node2");
  fabric.connect(n1, n2);

  // A long-running MPI-rank-like computation on node1.
  long steps = 0;
  n1.mercury().kernel().spawn("solver", [&](Sys& s) -> Sub<void> {
    const hw::VirtAddr grid = s.mmap(128 * hw::kPageSize, true);
    s.touch_pages(grid, 128, true);
    for (;;) {
      co_await s.compute_us(800.0);
      s.touch_pages(grid, 32, true);
      ++steps;
    }
  });

  // A health-monitor daemon polling the sensors (failure prediction).
  bool predicted = false;
  n1.mercury().kernel().spawn("healthd", [&](Sys& s) -> Sub<void> {
    for (;;) {
      co_await s.sleep_us(2000.0);
      const hw::SensorReadings r = s.read_sensors();
      if (hw::HealthSensors::predicts_failure(r)) {
        std::printf("healthd: ANOMALY temp=%.1fC fan=%.0frpm -> failure "
                    "predicted\n",
                    r.temperature_c, r.fan_rpm);
        predicted = true;
        co_return;
      }
    }
  });

  // The cooling fan will start dying 20 ms in.
  cluster::FailureInjector::schedule_overheat(
      n1, n1.machine().cpu(0).now() + 20 * hw::kCyclesPerMillisecond);

  MERC_CHECK(n1.mercury().kernel().run_until([&] { return predicted; },
                                             500 * hw::kCyclesPerMillisecond));
  const long steps_at_prediction = steps;
  std::printf("prediction at %ld solver steps; evacuating node1 -> node2\n",
              steps_at_prediction);

  const cluster::ArcReport report = cluster::evacuate_arc(n1, n2);
  if (!report.success) {
    std::fprintf(stderr, "evacuation failed\n");
    return 1;
  }
  n1.fail();  // the predicted failure arrives; node1 is already empty

  // The computation continues on node2 (same kernel object, new machine).
  n1.mercury().kernel().run_for(25 * hw::kCyclesPerMillisecond);
  std::printf("node1 is dead; solver continues on node2: %ld steps (+%ld)\n",
              steps, steps - steps_at_prediction);
  std::printf("prediction -> safety: %.1f ms; migration downtime %.3f ms "
              "(%zu pages, %zu rounds)\n",
              hw::cycles_to_us(report.window_cycles) / 1000.0,
              hw::cycles_to_us(report.downtime_cycles) / 1000.0,
              static_cast<std::size_t>(report.pages_sent),
              static_cast<std::size_t>(report.precopy_rounds));
  return steps > steps_at_prediction ? 0 : 1;
}
