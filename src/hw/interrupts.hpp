// (IO)APIC-like interrupt controller: per-CPU pending queues with arrival
// timestamps, inter-processor interrupts, and a 100 Hz per-CPU timer.
//
// Interrupts become *visible* to a CPU once its local clock passes the
// arrival time and its IF flag is set; the execution stepper polls
// `next_pending` between task steps, which models interrupt delivery at
// instruction boundaries.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/types.hpp"

namespace mercury::hw {

// Well-known vectors.
inline constexpr std::uint8_t kVecTimer = 32;
inline constexpr std::uint8_t kVecDisk = 33;
inline constexpr std::uint8_t kVecNic = 34;
inline constexpr std::uint8_t kVecSensor = 35;
inline constexpr std::uint8_t kVecIpiReschedule = 48;
inline constexpr std::uint8_t kVecIpiTlbShootdown = 49;
inline constexpr std::uint8_t kVecIpiModeSwitch = 50;
inline constexpr std::uint8_t kVecSelfVirtAttach = 0xF0;
inline constexpr std::uint8_t kVecSelfVirtDetach = 0xF1;

struct PendingInterrupt {
  std::uint8_t vector = 0;
  Cycles available_at = 0;
  std::uint32_t payload = 0;  // vector-specific (e.g. rendezvous generation)
};

class InterruptController {
 public:
  explicit InterruptController(std::size_t num_cpus);

  /// Raise a device/software interrupt on a CPU, visible at `available_at`.
  void raise(std::uint32_t cpu, std::uint8_t vector, Cycles available_at,
             std::uint32_t payload = 0);

  /// Send an IPI; charges send cost to the source CPU and computes arrival.
  void send_ipi(Cpu& from, std::uint32_t to_cpu, std::uint8_t vector,
                std::uint32_t payload = 0);

  /// IPI to every other online CPU (mode-switch rendezvous, TLB shootdown).
  void broadcast_ipi(Cpu& from, std::uint8_t vector, std::uint32_t payload = 0);

  /// Pop the highest-priority interrupt visible to `cpu` at its local time.
  /// Returns nullopt when none is deliverable (masked ones stay queued).
  std::optional<PendingInterrupt> next_pending(const Cpu& cpu);

  /// Earliest arrival time of any queued interrupt for the CPU (for idle
  /// clock advancement), or nullopt when the queue is empty.
  std::optional<Cycles> earliest_arrival(std::uint32_t cpu) const;

  std::uint64_t ipis_sent() const { return ipis_sent_; }

 private:
  std::vector<std::deque<PendingInterrupt>> pending_;
  std::uint64_t ipis_sent_ = 0;
};

/// Per-CPU periodic timer (100 Hz in all evaluated systems, as in the paper).
class TimerBank {
 public:
  TimerBank(std::size_t num_cpus, Cycles period);

  Cycles period() const { return period_; }

  /// If a tick is due on `cpu` (local clock passed the deadline), consume it
  /// and return true. The caller (stepper) then injects kVecTimer.
  bool tick_due(const Cpu& cpu);

  Cycles next_deadline(std::uint32_t cpu) const { return next_[cpu]; }

 private:
  Cycles period_;
  std::vector<Cycles> next_;
};

}  // namespace mercury::hw
