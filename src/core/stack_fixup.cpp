#include "core/stack_fixup.hpp"

#include <vector>

#include "core/fault_inject.hpp"
#include "kernel/kernel.hpp"
#include "obs/obs.hpp"
#include "pv/costs.hpp"

namespace mercury::core {

void fix_saved_contexts_range(hw::Cpu& cpu,
                              std::span<kernel::Task* const> tasks,
                              hw::Ring target, FixupStats& stats) {
  for (kernel::Task* tp : tasks) {
    kernel::Task& t = *tp;
    ++stats.tasks_scanned;
    fault_point(FaultSite::kStackFixup, &cpu);
    cpu.charge(pv::costs::kPerTaskSelectorFixup / 4);  // locate the frame
    if (!t.saved_ctx.valid) continue;
    const auto patch = [&](hw::SegmentSelector& cs, hw::SegmentSelector& ss) {
      if (cs.rpl() == hw::Ring::kRing3) return;  // user frame
      if (cs.rpl() == target) return;
      cpu.charge(pv::costs::kPerTaskSelectorFixup);
      cs.set_rpl(target);
      ss.set_rpl(target);
      ++stats.selectors_fixed;
    };
    // Base frame first. A frame flush against the stack top has no headroom
    // above it — the walk stops at the boundary rather than probing past
    // the stack end; locating it costs the same.
    patch(t.saved_ctx.cs, t.saved_ctx.ss);
    // Then every nested interrupt frame stacked above it (outermost first;
    // each iret pops its own selectors, so each must be rewritten).
    for (kernel::NestedFrame& f : t.saved_ctx.nested) {
      ++stats.nested_frames_scanned;
      patch(f.cs, f.ss);
    }
  }
}

FixupStats fix_all_saved_contexts(hw::Cpu& cpu, kernel::Kernel& k,
                                  hw::Ring target) {
  FixupStats stats;
  const obs::Interval walk(cpu, obs::IntervalKind::kFixupWalkTasks);
  std::vector<kernel::Task*> tasks;
  k.for_each_task([&](kernel::Task& t) { tasks.push_back(&t); });
  fix_saved_contexts_range(cpu, tasks, target, stats);
  MERC_COUNT_N("fixup.tasks_scanned", stats.tasks_scanned);
  MERC_COUNT_N("fixup.selectors_fixed", stats.selectors_fixed);
  return stats;
}

}  // namespace mercury::core
