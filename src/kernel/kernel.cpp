#include "kernel/kernel.hpp"

#include <algorithm>
#include <array>

#include "hw/costs.hpp"
#include "kernel/fs/minifs.hpp"
#include "kernel/layout.hpp"
#include "kernel/net/stack.hpp"
#include "kernel/stepper.hpp"
#include "kernel/syscalls.hpp"
#include "obs/obs.hpp"
#include "pv/costs.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mercury::kernel {

namespace {
// Distinct descriptor-table identities per kernel instance.
std::uint32_t g_next_table_id = 1;
}  // namespace

Kernel::Kernel(hw::Machine& machine, pv::SensitiveOps& initial_ops,
               std::string name)
    : machine_(&machine),
      ops_(&initial_ops),
      name_(std::move(name)),
      runqueues_(machine.num_cpus()),
      current_(machine.num_cpus(), nullptr),
      lock_rng_(0xC0FFEEull) {
  idt_token_ = hw::TableToken{g_next_table_id++};
  gdt_token_ = hw::TableToken{g_next_table_id++};
  fs_ = std::make_unique<MiniFs>(*this);
  net_ = std::make_unique<NetStack>(*this);
}

Kernel::~Kernel() = default;

hw::VirtAddr Kernel::kva_of_frame(hw::Pfn pfn) const {
  const hw::Pfn base = pool_.first();
  MERC_CHECK_MSG(pfn >= base && pfn < base + pool_.owned_count(),
                 "frame outside kernel direct map");
  return kKernelBase + static_cast<hw::VirtAddr>(pfn - base) * hw::kPageSize;
}

void Kernel::build_kernel_mappings() {
  // Direct map: kernel VA 0xC0000000+i*4K -> frame base_pfn()+i, one L1 table
  // per 4 MB. Built at boot time with plain memory writes (pre-paravirt
  // bootstrap, not on any measured path).
  auto& mem = machine_->memory();
  const std::size_t frame_count = pool_.owned_count();
  const std::size_t l1_count = (frame_count + hw::kPtEntries - 1) / hw::kPtEntries;
  kernel_pdes_.assign(256, hw::Pte{});
  kernel_l1s_.clear();
  kernel_l1s_.reserve(l1_count);

  std::size_t mapped = 0;
  for (std::size_t t = 0; t < l1_count; ++t) {
    hw::Pfn l1 = 0;
    MERC_CHECK(pool_.alloc(l1));
    kernel_l1s_.push_back(l1);
    std::array<std::uint32_t, hw::kPtEntries> table{};
    for (std::uint32_t e = 0; e < hw::kPtEntries && mapped < frame_count;
         ++e, ++mapped) {
      table[e] = hw::make_pte(pool_.first() + static_cast<hw::Pfn>(mapped),
                              /*writable=*/true, /*user=*/false,
                              /*global=*/true).raw;
    }
    mem.write_frame(l1, reinterpret_cast<const std::uint8_t*>(table.data()));
    const std::uint32_t pde_idx = 768 + static_cast<std::uint32_t>(t);
    MERC_CHECK_MSG(pde_idx < 1008, "kernel too large for direct-map window");
    kernel_pdes_[pde_idx - 768] =
        hw::make_pte(l1, /*writable=*/true, /*user=*/false, /*global=*/true);
  }

  // The boot page directory (used when no task address space is loaded).
  MERC_CHECK(pool_.alloc(kernel_pd_));
  std::array<std::uint32_t, hw::kPtEntries> pd{};
  for (std::size_t i = 0; i < kernel_pdes_.size(); ++i)
    pd[768 + i] = kernel_pdes_[i].raw;
  for (const auto& [idx, pde] : extra_pdes_) {
    MERC_CHECK(idx < hw::kPtEntries);
    pd[idx] = pde.raw;
  }
  mem.write_frame(kernel_pd_, reinterpret_cast<const std::uint8_t*>(pd.data()));
}

void Kernel::boot(hw::Pfn first_frame, std::size_t frame_count,
                  std::vector<std::pair<std::uint32_t, hw::Pte>> extra_pdes) {
  MERC_CHECK_MSG(!booted_, "double boot");
  extra_pdes_ = std::move(extra_pdes);
  pool_.grant(first_frame, frame_count);
  build_kernel_mappings();

  // Under a VMM the boot page tables must be validated/pinned before they
  // can be activated; on bare hardware these are no-ops.
  hw::Cpu& boot_cpu = machine_->cpu(0);
  for (const hw::Pfn l1 : kernel_l1s_)
    ops_->pin_page_table(boot_cpu, l1, pv::PtLevel::kL1);
  ops_->pin_page_table(boot_cpu, kernel_pd_, pv::PtLevel::kL2);

  for (std::size_t i = 0; i < machine_->num_cpus(); ++i) {
    hw::Cpu& cpu = machine_->cpu(i);
    ops_->load_gdt(cpu, gdt_token_);
    ops_->load_idt(cpu, idt_token_);
    ops_->write_cr3(cpu, kernel_pd_);
    ops_->irq_enable(cpu);
  }
  booted_ = true;
}

// --- tasks ---------------------------------------------------------------

Pid Kernel::spawn(std::string name, ProcMain body, std::size_t working_set_kb,
                  std::uint32_t affinity) {
  MERC_CHECK(booted_);
  const Pid pid = next_pid_++;
  auto task = std::make_unique<Task>(pid, 0, std::move(name));
  Task& t = *task;
  t.working_set_kb = working_set_kb;
  t.affinity = affinity;
  t.last_cpu = affinity != Task::kNoAffinity
                   ? affinity
                   : static_cast<std::uint32_t>(pid % machine_->num_cpus());
  t.aspace = std::make_unique<AddressSpace>(*this, machine_->cpu(t.last_cpu));
  // A minimal image: stack + heap regions.
  t.aspace->mmap(machine_->cpu(t.last_cpu), kUserStackTop - 64 * hw::kPageSize,
                 64 * hw::kPageSize, true, VmaKind::kAnon);
  t.aspace->mmap(machine_->cpu(t.last_cpu), kUserHeap, 256 * hw::kPageSize, true,
                 VmaKind::kAnon);
  t.sys = std::make_unique<Sys>(*this, t);
  auto owned_body = std::make_shared<ProcMain>(std::move(body));
  t.body_keepalive = owned_body;
  Sub<void> root = (*owned_body)(*t.sys);
  t.root = root.release();
  t.resume_point = t.root;
  ++stats_.tasks_spawned;
  tasks_[pid] = std::move(task);
  enqueue(&t);
  return pid;
}

Task* Kernel::find_task(Pid pid) {
  auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

std::size_t Kernel::live_tasks() const {
  std::size_t n = 0;
  for (const auto& [pid, t] : tasks_)
    if (t->state != TaskState::kZombie) ++n;
  return n;
}

std::size_t Kernel::runnable_tasks() const {
  std::size_t n = 0;
  for (const auto& [pid, t] : tasks_)
    if (t->state == TaskState::kRunnable || t->state == TaskState::kRunning) ++n;
  return n;
}

void Kernel::enqueue(Task* t) {
  MERC_CHECK(t != nullptr);
  t->state = TaskState::kRunnable;
  std::uint32_t cpu = t->affinity != Task::kNoAffinity ? t->affinity : t->last_cpu;
  if (t->affinity == Task::kNoAffinity && machine_->num_cpus() > 1) {
    // Light load balancing: prefer the emptiest runqueue.
    std::uint32_t best = cpu;
    std::size_t best_len = runqueues_[cpu].size();
    for (std::uint32_t c = 0; c < runqueues_.size(); ++c) {
      if (runqueues_[c].size() + 1 < best_len) {
        best = c;
        best_len = runqueues_[c].size();
      }
    }
    cpu = best;
  }
  runqueues_[cpu].push_back(t);
}

void Kernel::wake_all(WaitQueue& q) {
  while (Task* t = q.pop()) {
    t->waiting_on = nullptr;
    enqueue(t);
  }
}

bool Kernel::wake_if_waiting(Pid pid, WaitQueue& q) {
  Task* t = find_task(pid);
  if (!t || t->waiting_on != &q || t->state != TaskState::kBlocked) return false;
  q.remove(t);
  t->waiting_on = nullptr;
  enqueue(t);
  return true;
}

void Kernel::kill(Pid pid, int signal) {
  Task* t = find_task(pid);
  if (!t || t->state == TaskState::kZombie) return;
  t->killed = true;
  t->exit_status = -signal;
  if (t->state == TaskState::kBlocked) {
    if (t->waiting_on) {
      t->waiting_on->remove(t);
      t->waiting_on = nullptr;
    }
    enqueue(t);
  }
}

void Kernel::for_each_task(const std::function<void(Task&)>& fn) {
  for (auto& [pid, t] : tasks_) fn(*t);
}

Task& Kernel::do_fork(hw::Cpu& cpu, Task& parent, ProcMain body) {
  cpu.charge(costs::kForkFixedWork);
  const Pid pid = next_pid_++;
  auto task = std::make_unique<Task>(pid, parent.pid, parent.name + "+" );
  Task& child = *task;
  child.working_set_kb = parent.working_set_kb;
  child.affinity = parent.affinity;
  child.last_cpu = cpu.id();
  child.aspace = parent.aspace->fork_clone(cpu);
  child.fds = parent.fds;  // shared pipe ends: bump writer/reader counts
  for (const auto& f : child.fds) {
    if (f.kind == OpenFile::Kind::kPipeRead) ++pipe(f.index).readers_open;
    if (f.kind == OpenFile::Kind::kPipeWrite) ++pipe(f.index).writers_open;
  }
  child.sys = std::make_unique<Sys>(*this, child);
  auto owned_body = std::make_shared<ProcMain>(std::move(body));
  child.body_keepalive = owned_body;
  Sub<void> root = (*owned_body)(*child.sys);
  child.root = root.release();
  child.resume_point = child.root;
  ++stats_.tasks_spawned;
  tasks_[pid] = std::move(task);
  return child;
}

void Kernel::finalize_exit(hw::Cpu& cpu, Task& t, int status) {
  cpu.charge(costs::kExitFixedWork);
  // Close fds (pipe reference counting, EOF wakeups).
  for (std::size_t i = 0; i < t.fds.size(); ++i) {
    const OpenFile f = t.fds[i];
    if (f.kind == OpenFile::Kind::kPipeRead) {
      if (--pipe(f.index).readers_open == 0) wake_all(pipe(f.index).writers);
    } else if (f.kind == OpenFile::Kind::kPipeWrite) {
      if (--pipe(f.index).writers_open == 0) wake_all(pipe(f.index).readers);
    }
  }
  t.fds.clear();
  if (t.aspace) t.aspace->teardown(cpu);
  t.state = TaskState::kZombie;
  t.exit_status = status;
  wake_all(t.exit_waiters);
  if (current_[cpu.id()] == &t) current_[cpu.id()] = nullptr;
}

void Kernel::reap(Pid pid) {
  auto it = tasks_.find(pid);
  if (it == tasks_.end()) return;
  MERC_CHECK_MSG(it->second->state == TaskState::kZombie, "reaping a live task");
  tasks_.erase(it);
}

std::size_t Kernel::reap_zombies() {
  std::size_t n = 0;
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    if (it->second->state == TaskState::kZombie) {
      it = tasks_.erase(it);
      ++n;
    } else {
      ++it;
    }
  }
  return n;
}

// --- stepper ---------------------------------------------------------------

hw::Cpu& Kernel::pick_earliest_cpu() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < machine_->num_cpus(); ++i)
    if (machine_->cpu(i).now() < machine_->cpu(best).now()) best = i;
  return machine_->cpu(best);
}

hw::Cycles Kernel::earliest_cpu_time() const {
  return machine_->min_cpu_time();
}

Task* Kernel::pick_task(hw::Cpu& cpu) {
  auto& rq = runqueues_[cpu.id()];
  while (!rq.empty()) {
    Task* t = rq.front();
    rq.pop_front();
    if (t->state != TaskState::kRunnable) continue;  // stale entry
    return t;
  }
  // Work stealing (SMP): pull from the longest other queue.
  if (machine_->num_cpus() > 1) {
    for (std::size_t c = 0; c < runqueues_.size(); ++c) {
      if (c == cpu.id()) continue;
      auto& other = runqueues_[c];
      for (auto it = other.begin(); it != other.end(); ++it) {
        Task* t = *it;
        if (t->state == TaskState::kRunnable &&
            (t->affinity == Task::kNoAffinity || t->affinity == cpu.id())) {
          other.erase(it);
          return t;
        }
      }
    }
  }
  return nullptr;
}

bool Kernel::fixup_saved_selectors(Task& t, hw::Cpu& cpu) {
  if (!t.saved_ctx.valid) return true;
  const hw::Ring want = ops_->kernel_ring();
  // Only kernel-mode frames carry the kernel's ring; ring-3 frames are
  // privilege-invariant across mode switches. Nested interrupt frames above
  // the base frame are checked the same way: any stale one would #GP when
  // its iret pops it.
  const auto stale = [&](hw::SegmentSelector cs) {
    return cs.rpl() != hw::Ring::kRing3 && cs.rpl() != want;
  };
  bool any_stale = stale(t.saved_ctx.cs);
  for (const NestedFrame& f : t.saved_ctx.nested)
    any_stale = any_stale || stale(f.cs);
  if (!any_stale) return true;

  if (!selector_fixup_) {
    // The paper's failure mode: popping a stale selector raises #GP and the
    // resumed thread dies before executing a single instruction.
    ++stats_.gp_faults_on_resume;
    cpu.charge(hw::costs::kTrapEntry + costs::kSigsegvSetup +
               hw::costs::kTrapReturn);
    return false;
  }
  if (stale(t.saved_ctx.cs)) {
    cpu.charge(pv::costs::kPerTaskSelectorFixup);
    t.saved_ctx.cs.set_rpl(want);
    t.saved_ctx.ss.set_rpl(want);
    ++stats_.selector_fixups;
    MERC_COUNT("kernel.selector_fixups");
  }
  for (NestedFrame& f : t.saved_ctx.nested) {
    if (!stale(f.cs)) continue;
    cpu.charge(pv::costs::kPerTaskSelectorFixup);
    f.cs.set_rpl(want);
    f.ss.set_rpl(want);
    ++stats_.selector_fixups;
    MERC_COUNT("kernel.selector_fixups");
  }
  return true;
}

void Kernel::dispatch(hw::Cpu& cpu, Task& t) {
  cpu.charge(costs::kSchedPick);
  Task* prev = current_[cpu.id()];
  const bool switching = prev != &t;
  if (switching) {
    ++stats_.context_switches;
    MERC_COUNT("kernel.context_switches");
    cpu.charge(costs::kCtxSwitchBase + vo_path_tax_);
    smp_tax(cpu, costs::kSmpDispatchTax);
    lock_kernel(cpu);
    ops_->irq_disable(cpu);
    ops_->stack_switch(cpu);
    if (t.aspace) ops_->write_cr3(cpu, t.aspace->page_directory());
    ops_->irq_enable(cpu);
    unlock_kernel(cpu);
    t.cache_cold = true;
  }
  if (!fixup_saved_selectors(t, cpu)) {
    // Resume faulted: the task dies without running.
    finalize_exit(cpu, t, -11);
    return;
  }
  t.saved_ctx.valid = false;
  t.state = TaskState::kRunning;
  t.last_cpu = cpu.id();
  t.slice_end = cpu.now() + machine_->timers().period();
  t.need_resched = false;
  current_[cpu.id()] = &t;

  const hw::Cycles before = cpu.now();
  std::coroutine_handle<> rp = t.resume_point;
  MERC_CHECK_MSG(rp && !t.root.done(), "dispatching a finished task");

  // Return to user mode for the task body; syscalls re-enter the kernel's
  // ring via Sys::syscall_prologue.
  cpu.set_cpl(hw::Ring::kRing3);
  try {
    rp.resume();
    cpu.set_cpl(hw::Ring::kRing0);
  } catch (const TaskKilled& k) {
    cpu.set_cpl(hw::Ring::kRing0);
    // Fault path unwound through raise_trap while the coroutine ran on the
    // host stack (not stored in a promise because the resume originated
    // outside any coroutine): treat as kill.
    t.cpu_time += cpu.now() - before;
    finalize_exit(cpu, t, -k.signal);
    return;
  }

  t.cpu_time += cpu.now() - before;

  if (t.root.done()) {
    int status = 0;
    if (auto ex = t.root.promise().exception) {
      try {
        std::rethrow_exception(ex);
      } catch (const TaskExit& e) {
        status = e.status;
      } catch (const TaskKilled& k) {
        status = -k.signal;
      }
      // Any other exception type escapes to the caller of step() — it is a
      // simulator bug, not simulated behaviour.
    }
    finalize_exit(cpu, t, status);
    return;
  }

  if (t.killed && t.state == TaskState::kRunning) {
    finalize_exit(cpu, t, t.exit_status);
    return;
  }

  // The task suspended: its awaitable already set the new state.
  if (current_[cpu.id()] == &t && t.state == TaskState::kRunning) {
    // Suspended without transitioning (shouldn't happen).
    MERC_CHECK_MSG(false, "task suspended while still Running");
  }
  if (t.state != TaskState::kRunning) current_[cpu.id()] = nullptr;
}

bool Kernel::run_due_timer(hw::Cpu& cpu) {
  if (timers_.empty()) return false;
  auto it = timers_.begin();
  if (it->first > cpu.now()) return false;
  auto fn = std::move(it->second);
  timers_.erase(it);
  cpu.charge(600);  // timer softirq dispatch
  fn();
  return true;
}

void Kernel::deliver_timer_tick(hw::Cpu& cpu) {
  ++stats_.timer_ticks;
  cpu.charge(costs::kTimerTickWork);
  Task* cur = current_[cpu.id()];
  if (cur && !runqueues_[cpu.id()].empty()) cur->need_resched = true;
}

void Kernel::handle_interrupt(hw::Cpu& cpu, const hw::PendingInterrupt& irq) {
  ++stats_.interrupts;
  MERC_COUNT("kernel.interrupts");
  cpu.charge(hw::costs::kTrapEntry + vo_path_tax_);
  if (ops_->is_virtual()) {
    // Hardware interrupts land in the VMM first and are forwarded to the
    // guest as events.
    cpu.charge(pv::costs::kVmmTrapDispatch + pv::costs::kVmmBounceToGuest);
  }
  switch (irq.vector) {
    case hw::kVecTimer:
      deliver_timer_tick(cpu);
      break;
    case hw::kVecNic:
      net_->rx_drain(cpu);
      break;
    case hw::kVecDisk:
    case hw::kVecSensor:
      break;  // synchronous device model; nothing pending
    case hw::kVecIpiReschedule:
      cpu.charge(hw::costs::kIpiAck);
      break;
    case hw::kVecIpiTlbShootdown:
      cpu.charge(hw::costs::kIpiAck + hw::costs::kTlbFlushAll);
      cpu.tlb().flush_all();
      break;
    case hw::kVecIpiModeSwitch:
    case hw::kVecSelfVirtAttach:
    case hw::kVecSelfVirtDetach:
      if (selfvirt_handler_) selfvirt_handler_(cpu, irq.vector, irq.payload);
      break;
    default:
      util::log_warn("kernel", name_, ": spurious interrupt vector ",
                     static_cast<int>(irq.vector));
      break;
  }
  cpu.charge(hw::costs::kTrapReturn);
}

void Kernel::idle_advance(hw::Cpu& cpu, hw::Cycles horizon) {
  hw::Cycles next = machine_->timers().next_deadline(cpu.id());
  if (auto irq = machine_->interrupts().earliest_arrival(cpu.id()))
    next = std::min(next, *irq);
  if (!timers_.empty()) next = std::min(next, timers_.begin()->first);
  if (auto pkt = machine_->nic().earliest_arrival())
    next = std::min(next, *pkt);
  if (horizon != 0) next = std::min(next, horizon);
  cpu.advance_to(next);
}

bool Kernel::step(hw::Cycles horizon) {
  MERC_CHECK(booted_);
  hw::Cpu& cpu = pick_earliest_cpu();

  if (machine_->timers().tick_due(cpu))
    machine_->interrupts().raise(cpu.id(), hw::kVecTimer, cpu.now());

  if (auto irq = machine_->interrupts().next_pending(cpu)) {
    MERC_PROF_SCOPE("kernel.step.interrupt", &cpu);
    handle_interrupt(cpu, *irq);
    return true;
  }

  // Any CPU may retire a due software timer. Pinning the timer wheel to
  // CPU 0 livelocks on SMP: once CPU 0's clock runs past a due deadline,
  // another CPU parks exactly at that deadline (idle_advance never moves a
  // clock beyond timers_.begin()), stays the earliest forever, and CPU 0 —
  // the only CPU allowed to run the timer — is never picked again.
  if (!timers_.empty()) {
    MERC_PROF_SCOPE("kernel.step.timer", &cpu);
    if (run_due_timer(cpu)) return true;
  }

  if (Task* t = pick_task(cpu)) {
    MERC_PROF_SCOPE("kernel.step.task", &cpu);
    dispatch(cpu, *t);
    return true;
  }

  // Idle. If any task is runnable on another CPU, or a wakeup source is
  // pending, just advance the clock; otherwise report full idleness.
  const bool any_runnable = runnable_tasks() > 0;
  const bool timers_pending = !timers_.empty();
  bool any_irq = false;
  for (std::size_t i = 0; i < machine_->num_cpus(); ++i)
    if (machine_->interrupts().earliest_arrival(static_cast<std::uint32_t>(i)))
      any_irq = true;
  if (!any_runnable && !timers_pending && !any_irq &&
      !machine_->nic().earliest_arrival()) {
    return false;
  }
  {
    MERC_PROF_SCOPE("kernel.step.idle", &cpu);
    idle_advance(cpu, horizon);
  }
  return true;
}

bool Kernel::run_until(const std::function<bool()>& pred, hw::Cycles budget) {
  return step_until({this}, pred, budget);
}

void Kernel::run_for(hw::Cycles span) {
  const hw::Cycles end = earliest_cpu_time() + span;
  if (step_until({this}, [&] { return earliest_cpu_time() >= end; }, 0))
    return;
  // Fully idle: jump the clocks forward.
  for (std::size_t i = 0; i < machine_->num_cpus(); ++i)
    machine_->cpu(i).advance_to(end);
}

// --- traps -------------------------------------------------------------------

void Kernel::on_trap(hw::Cpu& cpu, const hw::TrapInfo& info) {
  guest_trap(cpu, info);
}

void Kernel::guest_trap(hw::Cpu& cpu, const hw::TrapInfo& info) {
  cpu.charge(vo_path_tax_);
  Task* cur = current_[cpu.id()];
  switch (info.kind) {
    case hw::TrapKind::kPageFault: {
      ++stats_.page_faults;
      MERC_COUNT("kernel.page_faults");
      MERC_CHECK_MSG(cur != nullptr, "page fault with no current task at 0x"
                                         << std::hex << info.fault_addr);
      lock_kernel(cpu);
      const bool ok = cur->aspace->handle_fault(cpu, info.fault_addr, info.write);
      unlock_kernel(cpu);
      if (!ok) {
        // Signal delivery: frame setup, handler dispatch, sigreturn.
        cpu.charge(costs::kSigsegvSetup + hw::costs::kTrapReturn);
        if (cur->catch_segv) {
          ++cur->segv_caught;  // the faulting access is not retried
          return;
        }
        throw TaskKilled{11};  // SIGSEGV
      }
      return;
    }
    case hw::TrapKind::kGeneralProtection:
      if (cur != nullptr) throw TaskKilled{11};
      MERC_CHECK_MSG(false, "kernel-context #GP: " << info.detail);
      return;
    case hw::TrapKind::kInvalidOpcode:
      if (cur != nullptr) throw TaskKilled{4};
      MERC_CHECK_MSG(false, "kernel-context #UD: " << info.detail);
      return;
  }
}

// --- SMP lock model ---------------------------------------------------------

void Kernel::lock_kernel(hw::Cpu& cpu) {
  if (machine_->num_cpus() < 2) return;
  cpu.charge(costs::kLockUncontended);
  if (lock_rng_.chance(costs::kLockContentionProb))
    cpu.charge(costs::kLockContended);
}

void Kernel::unlock_kernel(hw::Cpu& cpu) {
  if (machine_->num_cpus() < 2) return;
  cpu.charge(costs::kLockUncontended / 2);
}

// --- pipes -------------------------------------------------------------------

int Kernel::pipe_create() {
  pipes_.push_back(std::make_unique<Pipe>());
  return static_cast<int>(pipes_.size() - 1);
}

Pipe& Kernel::pipe(int idx) {
  MERC_CHECK(idx >= 0 && static_cast<std::size_t>(idx) < pipes_.size());
  return *pipes_[idx];
}

// --- COW frame refs -----------------------------------------------------------

void Kernel::frame_ref(hw::Pfn pfn) { ++frame_refs_[pfn]; }

bool Kernel::frame_unref(hw::Pfn pfn) {
  auto it = frame_refs_.find(pfn);
  MERC_CHECK_MSG(it != frame_refs_.end() && it->second > 0,
                 "unref of untracked frame " << pfn);
  if (--it->second == 0) {
    frame_refs_.erase(it);
    return true;
  }
  return false;
}

std::uint32_t Kernel::frame_refcount(hw::Pfn pfn) const {
  auto it = frame_refs_.find(pfn);
  return it == frame_refs_.end() ? 0 : it->second;
}

// --- timers -------------------------------------------------------------------

void Kernel::add_timer(hw::Cycles at, std::function<void()> fn) {
  timers_.emplace(at, std::move(fn));
}

// --- mode switch support -------------------------------------------------------

SavedContext Kernel::kernel_context_snapshot() const {
  const hw::Ring ring = ops_->kernel_ring();
  SavedContext ctx;
  ctx.cs = hw::make_selector(hw::kGdtKernelCs, ring);
  ctx.ss = hw::make_selector(hw::kGdtKernelDs, ring);
  ctx.valid = true;
  return ctx;
}

// --- migration ------------------------------------------------------------------

void Kernel::migrate_to(hw::Machine& dst, hw::Pfn new_base,
                        std::vector<std::pair<std::uint32_t, hw::Pte>>
                            new_extra_pdes) {
  migrate_state(dst, new_base, std::move(new_extra_pdes),
                /*rewrite_image=*/true);
}

void Kernel::rehome_to(hw::Machine& dst, hw::Pfn new_base,
                       std::vector<std::pair<std::uint32_t, hw::Pte>>
                           new_extra_pdes) {
  // The image at dst is already homed at new_base, so translating its PTE
  // contents again would double-translate (and the target's hypervisor
  // still owns the hardware control state) — bookkeeping only.
  migrate_state(dst, new_base, std::move(new_extra_pdes),
                /*rewrite_image=*/false);
}

void Kernel::migrate_state(hw::Machine& dst, hw::Pfn new_base,
                           std::vector<std::pair<std::uint32_t, hw::Pte>>
                               new_extra_pdes,
                           bool rewrite_image) {
  MERC_CHECK_MSG(&dst != machine_, "migrate_to the same machine");
  hw::Cpu& dcpu = dst.cpu(0);
  const hw::Pfn old_base = pool_.first();
  const auto translate = [&](hw::Pfn pfn) -> hw::Pfn {
    MERC_CHECK_MSG(pfn >= old_base && pfn < old_base + pool_.owned_count(),
                   "migrating kernel references foreign frame " << pfn);
    return new_base + (pfn - old_base);
  };

  // Rewrite the frame pool and COW reference table.
  pool_.rebase(new_base);
  std::unordered_map<hw::Pfn, std::uint32_t> new_refs;
  for (const auto& [pfn, n] : frame_refs_) new_refs[translate(pfn)] = n;
  frame_refs_ = std::move(new_refs);

  // Rewrite page-table frame numbers and PTE contents (uncanonicalize).
  auto rewrite_table = [&](hw::Pfn new_table, bool is_l2) {
    for (std::uint32_t e = 0; e < hw::kPtEntries; ++e) {
      const hw::PhysAddr a = hw::addr_of(new_table) + e * 4;
      hw::Pte pte{dst.memory().read_u32(a)};
      if (!pte.present()) continue;
      dcpu.charge(120);  // restore-time PTE fixup
      if (is_l2 && e >= hw::pde_index(kVmmBase)) {
        // Reserved VMM PDEs are replaced with the target's own template.
        hw::Pte repl{};
        for (const auto& [idx, v] : new_extra_pdes)
          if (idx == e) repl = v;
        dst.memory().write_u32(a, repl.raw);
        continue;
      }
      pte.set_pfn(translate(pte.pfn()));
      dst.memory().write_u32(a, pte.raw);
    }
  };

  for (auto& l1 : kernel_l1s_) l1 = translate(l1);
  kernel_pd_ = translate(kernel_pd_);
  if (rewrite_image) {
    for (const hw::Pfn l1 : kernel_l1s_) rewrite_table(l1, false);
    rewrite_table(kernel_pd_, true);
  }
  for (std::size_t i = 0; i < kernel_pdes_.size(); ++i) {
    if (kernel_pdes_[i].present())
      kernel_pdes_[i].set_pfn(translate(kernel_pdes_[i].pfn()));
  }
  for (auto& [pid, t] : tasks_) {
    if (!t->aspace) continue;
    AddressSpace& as = *t->aspace;
    as.pd_ = translate(as.pd_);
    for (auto& [pde, l1] : as.l1_frames_) l1 = translate(l1);
    if (rewrite_image) {
      for (const auto& [pde, l1] : as.l1_frames_) rewrite_table(l1, false);
      rewrite_table(as.pd_, true);
    }
  }

  extra_pdes_ = std::move(new_extra_pdes);
  machine_ = &dst;
  MERC_CHECK(runqueues_.size() <= dst.num_cpus() || dst.num_cpus() >= 1);
  // Re-shape per-CPU structures if the target has a different CPU count.
  if (runqueues_.size() != dst.num_cpus()) {
    std::deque<Task*> all;
    for (auto& rq : runqueues_)
      for (Task* t : rq) all.push_back(t);
    runqueues_.assign(dst.num_cpus(), {});
    current_.assign(dst.num_cpus(), nullptr);
    for (Task* t : all) {
      t->last_cpu = 0;
      if (t->affinity != Task::kNoAffinity)
        t->affinity = t->affinity % dst.num_cpus();
      runqueues_[0].push_back(t);
    }
    for_each_task([&](Task& t) { t.last_cpu = t.last_cpu % dst.num_cpus(); });
  }

  // Reload the hardware control state on the target. The restore executes
  // in VMM/restore context at ring 0, so the registers are written directly;
  // whoever owns the target's hardware (its hypervisor) re-asserts its own
  // descriptor tables afterwards. A rehome skips this too: the original
  // machine's control state was never disturbed while the guest was away.
  if (!rewrite_image) return;
  for (std::size_t i = 0; i < dst.num_cpus(); ++i) {
    hw::Cpu& cpu = dst.cpu(i);
    const hw::Ring prev = cpu.cpl();
    cpu.set_cpl(hw::Ring::kRing0);
    cpu.load_gdt(gdt_token_);
    cpu.load_idt(idt_token_);
    cpu.write_cr3(kernel_pd_);
    cpu.set_iflag_raw(true);
    cpu.set_cpl(prev);
  }
}

// --- awaitables ----------------------------------------------------------------

void BlockOn::await_suspend(std::coroutine_handle<> h) {
  task.resume_point = h;
  task.state = TaskState::kBlocked;
  task.waiting_on = &queue;
  task.saved_ctx = kernel.kernel_context_snapshot();
  queue.add(&task);
  if (kernel.current(task.last_cpu) == &task) {
    // The stepper notices the state change after resume() returns.
  }
}

void BlockOn::await_resume() {
  if (task.killed) throw TaskKilled{-task.exit_status};
}

void YieldCpu::await_suspend(std::coroutine_handle<> h) {
  task.resume_point = h;
  task.state = TaskState::kRunnable;
  // Yield points are user-mode preemption: the saved frame carries ring-3
  // selectors, which never need fixup.
  task.saved_ctx.cs = hw::make_selector(hw::kGdtUserCs, hw::Ring::kRing3);
  task.saved_ctx.ss = hw::make_selector(hw::kGdtUserDs, hw::Ring::kRing3);
  task.saved_ctx.valid = true;
  kernel.enqueue(&task);
}

void YieldCpu::await_resume() {
  if (task.killed) throw TaskKilled{-task.exit_status};
}

}  // namespace mercury::kernel
