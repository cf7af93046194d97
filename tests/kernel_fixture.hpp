// Shared fixture: a small booted native kernel for kernel-layer tests.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "core/native_vo.hpp"
#include "hw/machine.hpp"
#include "kernel/fs/minifs.hpp"
#include "kernel/kernel.hpp"
#include "kernel/net/stack.hpp"
#include "kernel/syscalls.hpp"

namespace mercury::testing {

/// A freestanding small native-kernel environment (instantiable anywhere),
/// on a NativeVo that charges no VO dispatch, as N-L's kernel does.
struct MiniKernel {
  explicit MiniKernel(std::size_t cpus = 1, std::size_t mem_mb = 64) {
    hw::MachineConfig mc;
    mc.num_cpus = cpus;
    mc.mem_kb = mem_mb * 1024;
    machine = std::make_unique<hw::Machine>(mc);
    machine->nic().bind_irq(&machine->interrupts(), 0);
    ops = std::make_unique<core::NativeVo>(*machine);
    k = std::make_unique<kernel::Kernel>(*machine, *ops, "test-kernel");
    hw::Pfn first = 0;
    const std::size_t frames = (mem_mb - 8) * 256;  // leave headroom
    if (!machine->frames().alloc_contiguous(frames, first))
      throw std::runtime_error("test machine too small");
    k->boot(first, frames);
    machine->install_trap_sink(k.get());
  }

  /// Run a body as a task to completion; returns false on budget exhaustion.
  bool run_task(kernel::ProcMain body,
                hw::Cycles budget = 30ull * 1000 * hw::kCyclesPerMillisecond) {
    bool done = false;
    k->spawn("t", [&done, body = std::move(body)](kernel::Sys& s)
                 -> kernel::Sub<void> {
      co_await body(s);
      done = true;
    });
    return k->run_until([&] { return done; }, budget);
  }

  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<core::NativeVo> ops;
  std::unique_ptr<kernel::Kernel> k;
};

class KernelFixture : public ::testing::Test {
 protected:
  explicit KernelFixture(std::size_t cpus = 1, std::size_t mem_mb = 64)
      : env_(cpus, mem_mb), machine(env_.machine), k(env_.k) {}

  bool run_task(kernel::ProcMain body,
                hw::Cycles budget = 30ull * 1000 * hw::kCyclesPerMillisecond) {
    return env_.run_task(std::move(body), budget);
  }

  MiniKernel env_;
  std::unique_ptr<hw::Machine>& machine;
  std::unique_ptr<kernel::Kernel>& k;
};

class SmpKernelFixture : public KernelFixture {
 protected:
  SmpKernelFixture() : KernelFixture(2) {}
};

}  // namespace mercury::testing
