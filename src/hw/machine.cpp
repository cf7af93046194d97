#include "hw/machine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mercury::hw {

Machine::Machine(MachineConfig config)
    : config_(config),
      mem_(config.mem_frames()),
      frames_(config.mem_frames()),
      mmu_(mem_),
      ic_(config.num_cpus),
      timers_(config.num_cpus,
              kCyclesPerMicrosecond * 1'000'000ull / config.timer_hz),
      disk_(config.disk),
      nic_(config.nic_addr, config.nic),
      sensors_(),
      rng_(config.seed) {
  MERC_CHECK(config.num_cpus > 0);
  MERC_CHECK_MSG(config.mem_frames() >= 1024, "machine needs at least 4 MB");
  cpus_.reserve(config.num_cpus);
  for (std::size_t i = 0; i < config.num_cpus; ++i)
    cpus_.push_back(std::make_unique<Cpu>(static_cast<std::uint32_t>(i)));
}

Cycles Machine::max_cpu_time() const {
  Cycles t = 0;
  for (const auto& c : cpus_) t = std::max(t, c->now());
  return t;
}

Cycles Machine::min_cpu_time() const {
  Cycles t = cpus_.front()->now();
  for (const auto& c : cpus_) t = std::min(t, c->now());
  return t;
}

void Machine::install_trap_sink(TrapSink* sink) {
  for (auto& c : cpus_) c->install_trap_sink(sink);
}

}  // namespace mercury::hw
