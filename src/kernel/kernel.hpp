// The mini-kernel: processes, scheduling, virtual memory, traps, timers,
// filesystem and network stack — the "Linux" of the reproduction.
//
// Every virtualization-sensitive operation is routed through a swappable
// pv::SensitiveOps pointer; Mercury's switch engine relocates the kernel
// between execution modes by exchanging that object (paper §4.2) and
// migrating the hardware/kernel state (§5.1).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/machine.hpp"
#include "kernel/addr_space.hpp"
#include "kernel/coro.hpp"
#include "kernel/costs.hpp"
#include "kernel/frame_pool.hpp"
#include "kernel/task.hpp"
#include "kernel/wait.hpp"
#include "pv/sensitive_ops.hpp"

namespace mercury::kernel {

class Sys;
class MiniFs;
class NetStack;

/// A process body: the "program" a task runs.
using ProcMain = std::function<Sub<void>(Sys&)>;

/// Thrown by Sys::exit to unwind the task coroutine with a status.
struct TaskExit {
  int status = 0;
};

struct Pipe {
  std::size_t buffered = 0;
  std::size_t capacity = 65536;
  int writers_open = 1;
  int readers_open = 1;
  WaitQueue readers;
  WaitQueue writers;
};

struct KernelStats {
  std::uint64_t context_switches = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t page_faults = 0;
  std::uint64_t cow_breaks = 0;
  std::uint64_t timer_ticks = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t selector_fixups = 0;
  std::uint64_t gp_faults_on_resume = 0;
  std::uint64_t tasks_spawned = 0;
};

class Kernel : public hw::TrapSink {
 public:
  Kernel(hw::Machine& machine, pv::SensitiveOps& initial_ops, std::string name);
  ~Kernel() override;

  /// Boot: take ownership of [first_frame, first_frame+frame_count), build
  /// the kernel page tables (direct map + reserved VMM PDEs), load CR3/IDT/
  /// GDT on every CPU through the sensitive-ops object, and start the idle
  /// bookkeeping. `extra_pdes` lets a VMM/Mercury inject its reserved
  /// mappings into every address space (unified layout, §3.2.2).
  void boot(hw::Pfn first_frame, std::size_t frame_count,
            std::vector<std::pair<std::uint32_t, hw::Pte>> extra_pdes = {});
  bool booted() const { return booted_; }

  // --- wiring ---
  hw::Machine& machine() { return *machine_; }
  pv::SensitiveOps& ops() { return *ops_; }
  void set_ops(pv::SensitiveOps& ops) { ops_ = &ops; }
  const std::string& name() const { return name_; }
  FramePool& pool() { return pool_; }
  hw::Pfn base_pfn() const { return pool_.first(); }
  hw::TableToken idt_token() const { return idt_token_; }
  hw::TableToken gdt_token() const { return gdt_token_; }
  hw::Pfn kernel_pd() const { return kernel_pd_; }
  const std::vector<hw::Pfn>& kernel_l1_frames() const { return kernel_l1s_; }
  const std::vector<hw::Pte>& kernel_pdes() const { return kernel_pdes_; }
  const std::vector<std::pair<std::uint32_t, hw::Pte>>& extra_pdes() const {
    return extra_pdes_;
  }
  MiniFs& fs() { return *fs_; }
  NetStack& net() { return *net_; }
  KernelStats& stats() { return stats_; }

  /// Direct-map address arithmetic (guest frames may not start at 0).
  hw::VirtAddr kva_of_frame(hw::Pfn pfn) const;

  // --- tasks ---
  Pid spawn(std::string name, ProcMain body, std::size_t working_set_kb = 64,
            std::uint32_t affinity = Task::kNoAffinity);
  Task* find_task(Pid pid);
  Task* current(std::uint32_t cpu) const { return current_[cpu]; }
  std::size_t live_tasks() const;
  std::size_t runnable_tasks() const;
  void enqueue(Task* t);
  void wake_all(WaitQueue& q);
  void kill(Pid pid, int signal = 9);
  void for_each_task(const std::function<void(Task&)>& fn);
  /// Wake `pid` if it is currently parked on `q` (timeout timers use this);
  /// returns true if it was woken.
  bool wake_if_waiting(Pid pid, WaitQueue& q);

  /// Fork machinery shared by Sys::fork (does the expensive kernel work).
  Task& do_fork(hw::Cpu& cpu, Task& parent, ProcMain body);
  void finalize_exit(hw::Cpu& cpu, Task& t, int status);
  void reap(Pid pid);
  /// Reap every zombie (init's orphan collection); returns how many.
  std::size_t reap_zombies();

  // --- execution stepper ---
  /// One step on the earliest CPU: deliver an interrupt, run a timer
  /// callback, or run one task slice. An idle CPU advances to its next
  /// wakeup source, but never past `horizon` (0 = unbounded). Returns false
  /// when fully idle (no runnable task, timer, interrupt or packet). Only
  /// the stepper (kernel/stepper.hpp) calls this.
  bool step(hw::Cycles horizon);
  /// Run until pred() holds; returns false on budget exhaustion, or when
  /// the kernel is fully idle and pred() still fails.
  bool run_until(const std::function<bool()>& pred, hw::Cycles budget);
  /// Run for a fixed span of simulated time; a fully idle kernel jumps to
  /// the end.
  void run_for(hw::Cycles span);

  // --- timers (software) ---
  void add_timer(hw::Cycles at, std::function<void()> fn);

  // --- interrupts & traps ---
  void handle_interrupt(hw::Cpu& cpu, const hw::PendingInterrupt& irq);
  void on_trap(hw::Cpu& cpu, const hw::TrapInfo& info) override;
  /// Entry point used by an active hypervisor to bounce a guest trap here.
  void guest_trap(hw::Cpu& cpu, const hw::TrapInfo& info);
  /// Mercury hooks its attach/detach handlers here (self-virtualization
  /// interrupt vectors + rendezvous IPIs).
  void set_selfvirt_handler(
      std::function<void(hw::Cpu&, std::uint8_t, std::uint32_t)> fn) {
    selfvirt_handler_ = std::move(fn);
  }

  // --- SMP big-kernel-lock model ---
  void lock_kernel(hw::Cpu& cpu);
  void unlock_kernel(hw::Cpu& cpu);
  bool smp() const { return machine_->num_cpus() > 1; }
  /// Charge SMP-only cacheline/lock pressure.
  void smp_tax(hw::Cpu& cpu, hw::Cycles c) {
    if (smp()) cpu.charge(c);
  }

  /// Mercury-built kernels charge the VO layer's path-entry cost on every
  /// trap / syscall / context-switch entry (paper §7.2's code/data layout
  /// displacement). Zero for N-L and unmodified Xen-Linux builds.
  void set_vo_path_tax(hw::Cycles c) { vo_path_tax_ = c; }
  hw::Cycles vo_path_tax() const { return vo_path_tax_; }

  // --- pipes ---
  int pipe_create();
  Pipe& pipe(int idx);

  // --- COW frame sharing ---
  void frame_ref(hw::Pfn pfn);
  /// Decrement; returns true when that was the last reference.
  bool frame_unref(hw::Pfn pfn);
  std::uint32_t frame_refcount(hw::Pfn pfn) const;

  // --- mode switch support (used by core/) ---
  /// Segment selectors a thread blocked in-kernel snapshots right now.
  SavedContext kernel_context_snapshot() const;
  /// Enable/disable the resume-time selector fixup stub (§5.1.2); disabling
  /// it demonstrates the #GP the paper describes.
  void set_selector_fixup_enabled(bool on) { selector_fixup_ = on; }
  bool selector_fixup_enabled() const { return selector_fixup_; }
  /// The per-CPU time of the CPU the stepper would run next.
  hw::Cycles earliest_cpu_time() const;

  /// Relocate this kernel onto another machine (live-migration restore).
  /// Frame contents must already be present at [new_base, new_base+count) on
  /// `dst`; this rewrites every machine-frame number embedded in kernel
  /// state and page tables (Xen's canonicalize/uncanonicalize pass) and
  /// rebinds the device/interrupt plumbing. Costs are charged to dst CPU 0.
  void migrate_to(hw::Machine& dst, hw::Pfn new_base,
                  std::vector<std::pair<std::uint32_t, hw::Pte>> new_extra_pdes);

  /// Re-point kernel bookkeeping at `dst`/`new_base` without rewriting the
  /// image. The target memory must already hold this kernel's frames homed
  /// at `new_base` — the abandoned source of an aborted migration, whose
  /// frames were never freed or overwritten while the guest sat frozen.
  /// Page-table contents and the target's hardware control state are left
  /// untouched; only host-side frame numbers (pool, COW refs, table pfns,
  /// address-space records) are translated.
  void rehome_to(hw::Machine& dst, hw::Pfn new_base,
                 std::vector<std::pair<std::uint32_t, hw::Pte>> new_extra_pdes);

 private:
  friend class AddressSpace;
  friend class Sys;

  hw::Cpu& pick_earliest_cpu();
  Task* pick_task(hw::Cpu& cpu);
  void dispatch(hw::Cpu& cpu, Task& t);
  bool run_due_timer(hw::Cpu& cpu);
  void idle_advance(hw::Cpu& cpu, hw::Cycles horizon);
  void deliver_timer_tick(hw::Cpu& cpu);
  bool fixup_saved_selectors(Task& t, hw::Cpu& cpu);
  void build_kernel_mappings();
  void migrate_state(hw::Machine& dst, hw::Pfn new_base,
                     std::vector<std::pair<std::uint32_t, hw::Pte>> new_extra_pdes,
                     bool rewrite_image);

  hw::Machine* machine_;
  pv::SensitiveOps* ops_;
  std::string name_;
  bool booted_ = false;

  FramePool pool_;
  hw::TableToken idt_token_{};
  hw::TableToken gdt_token_{};
  hw::Pfn kernel_pd_ = 0;
  std::vector<hw::Pfn> kernel_l1s_;
  std::vector<hw::Pte> kernel_pdes_;  // PDE template, indices 768..1023
  std::vector<std::pair<std::uint32_t, hw::Pte>> extra_pdes_;

  Pid next_pid_ = 1;
  std::map<Pid, std::unique_ptr<Task>> tasks_;
  std::vector<std::deque<Task*>> runqueues_;
  std::vector<Task*> current_;

  std::multimap<hw::Cycles, std::function<void()>> timers_;

  std::vector<std::unique_ptr<Pipe>> pipes_;
  std::unordered_map<hw::Pfn, std::uint32_t> frame_refs_;

  std::function<void(hw::Cpu&, std::uint8_t, std::uint32_t)> selfvirt_handler_;

  std::unique_ptr<MiniFs> fs_;
  std::unique_ptr<NetStack> net_;

  bool selector_fixup_ = true;
  hw::Cycles vo_path_tax_ = 0;
  util::Rng lock_rng_;
  KernelStats stats_;
};

/// Awaitable: park the current task on a wait queue until woken.
struct BlockOn {
  Kernel& kernel;
  Task& task;
  WaitQueue& queue;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();
};

/// Awaitable: voluntarily yield the CPU (stay runnable).
struct YieldCpu {
  Kernel& kernel;
  Task& task;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();
};

}  // namespace mercury::kernel
