// The sensitive-operation interface: the semantics of direct (bare
// hardware) ops on N-L's NativeVo, and the cost asymmetries the whole
// evaluation relies on.
#include <gtest/gtest.h>

#include <array>
#include <deque>

#include "core/native_vo.hpp"
#include "hw/machine.hpp"
#include "pv/costs.hpp"
#include "tests/kernel_fixture.hpp"
#include "workloads/configs.hpp"

namespace mercury::testing {
namespace {

using workloads::Sut;
using workloads::SutParams;
using workloads::SystemId;

// N-L's direct ops: a NativeVo whose per-op charge stays 0.
struct DirectFixture : ::testing::Test {
  DirectFixture() : machine(cfg()), ops(machine) {
    machine.install_trap_sink(&sink);
  }
  static hw::MachineConfig cfg() {
    hw::MachineConfig mc;
    mc.mem_kb = 16 * 1024;
    return mc;
  }
  struct Sink : hw::TrapSink {
    void on_trap(hw::Cpu&, const hw::TrapInfo&) override {}
  } sink;
  hw::Machine machine;
  core::NativeVo ops;
};

TEST_F(DirectFixture, IdentifiesAsNativeRing0) {
  EXPECT_EQ(ops.per_op_charge(), 0u);
  EXPECT_FALSE(ops.is_virtual());
  EXPECT_EQ(ops.kernel_ring(), hw::Ring::kRing0);
  EXPECT_EQ(ops.copy_tax_per_kb(), 0u);
}

TEST_F(DirectFixture, PteWriteLandsInMemory) {
  hw::Cpu& cpu = machine.cpu(0);
  const hw::Pte pte = hw::make_pte(77, true, true);
  ops.pte_write(cpu, hw::addr_of(5) + 12, pte);
  EXPECT_EQ(machine.memory().read_u32(hw::addr_of(5) + 12), pte.raw);
}

TEST_F(DirectFixture, BatchWritesAllEntries) {
  hw::Cpu& cpu = machine.cpu(0);
  std::array<pv::PteUpdate, 3> updates{{
      {hw::addr_of(5) + 0, hw::make_pte(1, true, true)},
      {hw::addr_of(5) + 4, hw::make_pte(2, true, true)},
      {hw::addr_of(5) + 8, hw::make_pte(3, true, true)},
  }};
  ops.pte_write_batch(cpu, updates);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(hw::Pte{machine.memory().read_u32(hw::addr_of(5) + i * 4)}.pfn(),
              static_cast<hw::Pfn>(i + 1));
}

TEST_F(DirectFixture, PinIsFreeOnBareHardware) {
  hw::Cpu& cpu = machine.cpu(0);
  const hw::Cycles before = cpu.now();
  ops.pin_page_table(cpu, 9, pv::PtLevel::kL1);
  ops.unpin_page_table(cpu, 9);
  EXPECT_EQ(cpu.now(), before) << "no page-type discipline natively";
}

TEST_F(DirectFixture, FlushTlbDropsEntries) {
  hw::Cpu& cpu = machine.cpu(0);
  cpu.tlb().insert(3, hw::make_pte(3, true, true));
  ops.flush_tlb(cpu);
  EXPECT_FALSE(cpu.tlb().lookup(3).has_value());
}

TEST_F(DirectFixture, DiskOpsChargeDeviceCosts) {
  hw::Cpu& cpu = machine.cpu(0);
  std::array<std::uint8_t, 4096> buf{};
  const hw::Cycles before = cpu.now();
  ops.disk_write(cpu, 100, buf);
  EXPECT_GE(cpu.now() - before, hw::costs::kDiskOverhead);
}

// --- cost asymmetries across the six systems ------------------------------------

SutParams tiny() {
  SutParams p;
  p.machine_mem_kb = 256 * 1024;
  p.kernel_mem_kb = 96 * 1024;
  p.domu_mem_kb = 64 * 1024;
  return p;
}

hw::Cycles cost_of_pte_write(Sut& sut) {
  kernel::Kernel& k = sut.kernel();
  hw::Cpu& cpu = sut.machine().cpu(0);
  // Use a real page-table slot so VMM validation passes.
  const hw::Pfn l1 = k.kernel_l1_frames().back();
  const hw::PhysAddr addr = hw::addr_of(l1) + 4000;  // high, unused entry
  const hw::Cycles before = cpu.now();
  k.ops().pte_write(cpu, addr, hw::Pte{});
  return cpu.now() - before;
}

TEST(PvCosts, VirtualPteWriteIsTrapAndEmulatePriced) {
  auto nl = Sut::create(SystemId::kNL, tiny());
  auto x0 = Sut::create(SystemId::kX0, tiny());
  const hw::Cycles native = cost_of_pte_write(*nl);
  const hw::Cycles virt = cost_of_pte_write(*x0);
  EXPECT_GT(virt, 10 * native)
      << "writable-page-table emulation dominates Xen's PTE path";
  EXPECT_GT(virt, pv::costs::kPteEmulateDecode);
}

TEST(PvCosts, BatchedUpdatesAmortizeTheHypercall) {
  auto x0 = Sut::create(SystemId::kX0, tiny());
  kernel::Kernel& k = x0->kernel();
  hw::Cpu& cpu = x0->machine().cpu(0);
  const hw::Pfn l1 = k.kernel_l1_frames().back();
  std::vector<pv::PteUpdate> batch;
  for (int i = 0; i < 64; ++i)
    batch.push_back({hw::addr_of(l1) + 3700 + i * 4, hw::Pte{}});

  const hw::Cycles t0 = cpu.now();
  k.ops().pte_write_batch(cpu, batch);
  const hw::Cycles batched = cpu.now() - t0;

  const hw::Cycles t1 = cpu.now();
  for (const auto& u : batch) k.ops().pte_write(cpu, u.pte_addr, u.value);
  const hw::Cycles singles = cpu.now() - t1;

  EXPECT_LT(batched, singles / 2)
      << "multicall batching must amortize the per-trap cost";
}

TEST(PvCosts, SyscallPathDearerWhenDeprivileged) {
  auto nl = Sut::create(SystemId::kNL, tiny());
  auto x0 = Sut::create(SystemId::kX0, tiny());
  auto cost = [](Sut& s) {
    hw::Cpu& cpu = s.machine().cpu(0);
    const hw::Cycles before = cpu.now();
    s.kernel().ops().syscall_entered(cpu);
    s.kernel().ops().syscall_exiting(cpu);
    return cpu.now() - before;
  };
  EXPECT_GT(cost(*x0), cost(*nl));
}

TEST(PvCosts, VirtualIrqToggleIsCheapSharedInfoWrite) {
  auto x0 = Sut::create(SystemId::kX0, tiny());
  hw::Cpu& cpu = x0->machine().cpu(0);
  const hw::Cycles before = cpu.now();
  x0->kernel().ops().irq_disable(cpu);
  x0->kernel().ops().irq_enable(cpu);
  // No trap: far below a hypercall round trip.
  EXPECT_LT(cpu.now() - before, pv::costs::kHypercallEntry);
  EXPECT_TRUE(cpu.interrupts_enabled());
}

TEST(PvCosts, Cr3SwitchIncludesVmmContextSwitchWork) {
  auto nl = Sut::create(SystemId::kNL, tiny());
  auto x0 = Sut::create(SystemId::kX0, tiny());
  auto cost = [](Sut& s) {
    hw::Cpu& cpu = s.machine().cpu(0);
    const hw::Cycles before = cpu.now();
    s.kernel().ops().write_cr3(cpu, s.kernel().kernel_pd());
    return cpu.now() - before;
  };
  EXPECT_GT(cost(*x0), cost(*nl) + pv::costs::kVmmCtxSwitch / 2);
}

TEST(PvCosts, GuestNetworkPathFarDearerThanDriverDomain) {
  // Declared before the systems so the wires outlive the attached NICs.
  std::deque<hw::Link> links;
  auto x0 = Sut::create(SystemId::kX0, tiny());
  auto xu = Sut::create(SystemId::kXU, tiny());
  auto cost = [&links](Sut& s) {
    static hw::Nic dummy_peer(0xFE);  // wire sink
    hw::Link& link = links.emplace_back();
    link.attach(&s.machine().nic(), &dummy_peer);
    hw::Cpu& cpu = s.machine().cpu(0);
    hw::Packet pkt;
    pkt.payload_bytes = 1448;
    const hw::Cycles before = cpu.now();
    s.kernel().ops().net_send(cpu, pkt);
    return cpu.now() - before;
  };
  EXPECT_GT(cost(*xu), cost(*x0) + pv::costs::kVirtNetGuestTxExtra / 2)
      << "domU pays the split-driver hop on top of the dom0 path";
}

}  // namespace
}  // namespace mercury::testing
