// The one stepping loop: one kernel (Kernel::run_until / run_for), a
// netperf client and its peer host, and a fleet (Fabric::co_step) all
// advance through step_until. Each turn orders the kernels by earliest CPU
// clock, ties in caller order, and steps them in that order until one
// makes progress. Each step's idle horizon is the next kernel's clock plus
// the link lookahead, so no message from a later kernel can land in an
// idle one's past; the last kernel gets none. A fully idle kernel reports
// no progress without moving, so the next one steps instead: an idle
// kernel cannot pin the loop. When none progresses, nothing can happen.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "kernel/kernel.hpp"

namespace mercury::kernel {

/// The minimum one-way link latency: how far an idle step may run past the
/// next kernel's clock.
inline constexpr hw::Cycles kLinkLookahead = 20 * hw::kCyclesPerMicrosecond;

/// Step `kernels` until pred() holds; false once the furthest kernel's
/// clock is more than `budget` (0 = none) past the earliest one at entry,
/// or when every kernel is fully idle and pred() still fails.
/// `step(i, horizon)` steps kernels[i] once and says whether it progressed.
template <class Pred, class Step>
bool step_until(std::span<Kernel* const> kernels, Pred&& pred,
                hw::Cycles budget, Step&& step) {
  const std::size_t n = kernels.size();
  // (clock, caller index): sorting the pairs breaks clock ties by index.
  std::vector<std::pair<hw::Cycles, std::size_t>> order(n);
  hw::Cycles start = ~hw::Cycles{0};
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = {kernels[i]->earliest_cpu_time(), i};
    start = std::min(start, order[i].first);
  }
  while (!pred()) {
    if (n > 1) {
      for (auto& [clock, i] : order) clock = kernels[i]->earliest_cpu_time();
      std::sort(order.begin(), order.end());
    }
    bool progressed = false;
    for (std::size_t j = 0; j < n && !progressed; ++j) {
      const hw::Cycles horizon =
          j + 1 < n ? order[j + 1].first + kLinkLookahead : 0;
      progressed = step(order[j].second, horizon);
    }
    if (!progressed) return pred();
    if (budget != 0) {
      hw::Cycles furthest = 0;
      for (Kernel* k : kernels)
        furthest = std::max(furthest, k->earliest_cpu_time());
      if (furthest - start > budget) return false;
    }
  }
  return true;
}

template <class Pred>
bool step_until(std::initializer_list<Kernel*> kernels, Pred&& pred,
                hw::Cycles budget) {
  const std::span<Kernel* const> ks(kernels.begin(), kernels.size());
  return step_until(ks, pred, budget, [ks](std::size_t i, hw::Cycles h) {
    return ks[i]->step(h);
  });
}

}  // namespace mercury::kernel
