// The Machine: CPUs + physical memory + interrupt controller + devices.
// Mirrors the paper's testbed (DELL SC1420: 2x 3 GHz Xeon, 900 000 KB RAM
// per Linux variant, SCSI disk, GbE NIC) by default.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/devices/disk.hpp"
#include "hw/devices/nic.hpp"
#include "hw/devices/sensors.hpp"
#include "hw/frame_alloc.hpp"
#include "hw/interrupts.hpp"
#include "hw/mmu.hpp"
#include "hw/phys_mem.hpp"
#include "util/rng.hpp"

namespace mercury::hw {

struct MachineConfig {
  std::size_t num_cpus = 1;
  std::size_t mem_kb = 900'000;           // paper's per-variant reservation
  std::uint32_t timer_hz = 100;           // paper: 100 Hz for all systems
  std::uint32_t nic_addr = 0x0A000001;    // 10.0.0.1
  Disk::Params disk{};
  Nic::Params nic{};
  std::uint64_t seed = 1;

  std::size_t mem_frames() const { return (mem_kb * 1024) / kPageSize; }
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  const MachineConfig& config() const { return config_; }

  std::size_t num_cpus() const { return cpus_.size(); }
  Cpu& cpu(std::size_t i) { return *cpus_.at(i); }
  const Cpu& cpu(std::size_t i) const { return *cpus_.at(i); }

  PhysicalMemory& memory() { return mem_; }
  FrameAllocator& frames() { return frames_; }
  Mmu& mmu() { return mmu_; }
  InterruptController& interrupts() { return ic_; }
  TimerBank& timers() { return timers_; }
  Disk& disk() { return disk_; }
  Nic& nic() { return nic_; }
  HealthSensors& sensors() { return sensors_; }
  util::Rng& rng() { return rng_; }

  /// Latest local clock across all CPUs (the machine's wall clock).
  Cycles max_cpu_time() const;
  /// Earliest local clock across all CPUs.
  Cycles min_cpu_time() const;

  /// Install a trap sink on every CPU (ring-0 handover during mode switch).
  void install_trap_sink(TrapSink* sink);

 private:
  MachineConfig config_;
  PhysicalMemory mem_;
  FrameAllocator frames_;
  Mmu mmu_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  InterruptController ic_;
  TimerBank timers_;
  Disk disk_;
  Nic nic_;
  HealthSensors sensors_;
  util::Rng rng_;
};

}  // namespace mercury::hw
