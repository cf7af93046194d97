#include "hw/interrupts.hpp"

#include <algorithm>

#include "hw/costs.hpp"
#include "util/assert.hpp"

namespace mercury::hw {

InterruptController::InterruptController(std::size_t num_cpus)
    : pending_(num_cpus) {
  MERC_CHECK(num_cpus > 0);
}

void InterruptController::raise(std::uint32_t cpu, std::uint8_t vector,
                                Cycles available_at, std::uint32_t payload) {
  MERC_CHECK(cpu < pending_.size());
  pending_[cpu].push_back(PendingInterrupt{vector, available_at, payload});
}

void InterruptController::send_ipi(Cpu& from, std::uint32_t to_cpu,
                                   std::uint8_t vector, std::uint32_t payload) {
  from.charge(costs::kIpiSendLatency / 3);  // ICR write occupies the sender briefly
  ++ipis_sent_;
  raise(to_cpu, vector, from.now() + costs::kIpiSendLatency, payload);
}

void InterruptController::broadcast_ipi(Cpu& from, std::uint8_t vector,
                                        std::uint32_t payload) {
  for (std::uint32_t c = 0; c < pending_.size(); ++c) {
    if (c == from.id()) continue;
    send_ipi(from, c, vector, payload);
  }
}

std::optional<PendingInterrupt> InterruptController::next_pending(const Cpu& cpu) {
  if (!cpu.interrupts_enabled()) return std::nullopt;
  auto& q = pending_[cpu.id()];
  // Deliver the lowest-vector (highest priority) interrupt among those whose
  // arrival time has passed; FIFO within a vector.
  auto best = q.end();
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (it->available_at > cpu.now()) continue;
    if (best == q.end() || it->vector < best->vector) best = it;
  }
  if (best == q.end()) return std::nullopt;
  PendingInterrupt out = *best;
  q.erase(best);
  return out;
}

std::optional<Cycles> InterruptController::earliest_arrival(std::uint32_t cpu) const {
  MERC_CHECK(cpu < pending_.size());
  const auto& q = pending_[cpu];
  if (q.empty()) return std::nullopt;
  Cycles earliest = q.front().available_at;
  for (const auto& p : q) earliest = std::min(earliest, p.available_at);
  return earliest;
}

TimerBank::TimerBank(std::size_t num_cpus, Cycles period)
    : period_(period), next_(num_cpus, period) {
  MERC_CHECK(period > 0);
}

bool TimerBank::tick_due(const Cpu& cpu) {
  MERC_CHECK(cpu.id() < next_.size());
  if (cpu.now() < next_[cpu.id()]) return false;
  // Skip missed ticks rather than replaying a burst (lost-tick model).
  while (next_[cpu.id()] <= cpu.now()) next_[cpu.id()] += period_;
  return true;
}

}  // namespace mercury::hw
