// Network stack: UDP, echo, TCP-lite handshake/flow control, timeouts,
// two-kernel co-stepping.
#include <cinttypes>
#include <cstdio>

#include "kernel/stepper.hpp"
#include "tests/kernel_fixture.hpp"
#include "workloads/configs.hpp"
#include "workloads/netperf.hpp"

namespace mercury::testing {
namespace {

using kernel::Sub;
using kernel::Sys;
using workloads::Netperf;
using workloads::PeerHost;

class NetTest : public KernelFixture {
 protected:
  NetTest() : peer(0x0A0000FE) { peer.connect_to(*machine); }

  /// Step the kernel under test and the peer host on one timeline.
  template <class Pred>
  bool step_both(Pred pred, hw::Cycles budget) {
    return kernel::step_until({k.get(), &peer.kernel()}, pred, budget);
  }

  PeerHost peer;
};

TEST_F(NetTest, PingGetsEchoReply) {
  double rtt = -1;
  bool done = false;
  k->spawn("ping", [&](Sys& s) -> Sub<void> {
    rtt = co_await s.ping(0x0A0000FE, 56, 50'000.0);
    done = true;
  });
  EXPECT_TRUE(step_both([&] { return done; }, 200 * hw::kCyclesPerMillisecond));
  EXPECT_GT(rtt, 0.0);
  EXPECT_LT(rtt, 500.0) << "RTT should be ~100us, not timer-quantized";
  EXPECT_GE(peer.kernel().net().stats().echoes_answered, 1u);
}

TEST_F(NetTest, PingTimesOutWhenLinkDown) {
  peer.link().set_up(false);
  double rtt = 0;
  bool done = false;
  k->spawn("ping", [&](Sys& s) -> Sub<void> {
    rtt = co_await s.ping(0x0A0000FE, 56, 3000.0);
    done = true;
  });
  EXPECT_TRUE(step_both([&] { return done; }, 200 * hw::kCyclesPerMillisecond));
  EXPECT_LT(rtt, 0.0) << "loss must be reported";
}

TEST_F(NetTest, UdpRoundTrip) {
  bool got = false;
  std::size_t got_bytes = 0;
  peer.kernel().spawn("udp-server", [&](Sys& s) -> Sub<void> {
    const int fd = s.socket_udp(7777);
    const auto r = co_await s.recvfrom(fd, 100'000.0);
    if (r.ok) {
      got_bytes = r.bytes;
      s.sendto(fd, r.from_addr, r.from_port, 64);
    }
    co_return;
  });
  k->spawn("udp-client", [&](Sys& s) -> Sub<void> {
    const int fd = s.socket_udp(0);
    s.sendto(fd, 0x0A0000FE, 7777, 1200);
    const auto r = co_await s.recvfrom(fd, 100'000.0);
    got = r.ok;
    co_return;
  });
  EXPECT_TRUE(step_both([&] { return got; }, 400 * hw::kCyclesPerMillisecond));
  EXPECT_EQ(got_bytes, 1200u);
}

TEST_F(NetTest, UdpToClosedPortIsDropped) {
  bool done = false;
  k->spawn("udp", [&](Sys& s) -> Sub<void> {
    const int fd = s.socket_udp(0);
    s.sendto(fd, 0x0A0000FE, 9, 100);
    co_await s.sleep_us(2000.0);
    done = true;
  });
  EXPECT_TRUE(step_both([&] { return done; }, 100 * hw::kCyclesPerMillisecond));
  EXPECT_GE(peer.kernel().net().stats().dropped_no_socket, 1u);
}

TEST_F(NetTest, TcpTransfersAllBytes) {
  constexpr std::size_t kBytes = 512 * 1024;
  bool server_done = false, client_done = false;
  std::size_t received = 0;
  peer.kernel().spawn("srv", [&](Sys& s) -> Sub<void> {
    const int lfd = s.tcp_listen(5001);
    const int conn = co_await s.tcp_accept(lfd, 1e6);
    while (received < kBytes) {
      const std::size_t n = co_await s.tcp_recv(conn, 64 * 1024, 1e6);
      if (n == 0) break;
      received += n;
    }
    server_done = true;
    co_return;
  });
  k->spawn("cli", [&](Sys& s) -> Sub<void> {
    co_await s.sleep_us(1000.0);
    const int fd = s.tcp_connect(0x0A0000FE, 5001);
    const std::size_t sent = co_await s.tcp_send(fd, kBytes);
    EXPECT_EQ(sent, kBytes);
    client_done = true;
    co_return;
  });
  EXPECT_TRUE(step_both([&] { return server_done && client_done; },
                        5000ull * hw::kCyclesPerMillisecond));
  EXPECT_EQ(received, kBytes);
  EXPECT_GT(k->net().stats().tcp_segments_tx, kBytes / 1448);
  EXPECT_GT(peer.kernel().net().stats().tcp_acks_tx, 0u);
}

TEST_F(NetTest, TcpWindowBoundsUnackedBytes) {
  // Once ACKs stop flowing (link cut after establishment), the sender can
  // never have more than the 64 KB window outstanding.
  bool established = false;
  peer.kernel().spawn("srv", [&](Sys& s) -> Sub<void> {
    const int lfd = s.tcp_listen(5002);
    (void)co_await s.tcp_accept(lfd, 1e6);
    for (int i = 0; i < 100; ++i) co_await s.sleep_us(10'000.0);
    co_return;
  });
  k->spawn("cli", [&](Sys& s) -> Sub<void> {
    co_await s.sleep_us(1000.0);
    const int fd = s.tcp_connect(0x0A0000FE, 5002);
    co_await s.sleep_us(1000.0);  // let the SYNACK land
    established = true;
    co_await s.tcp_send(fd, 4 * 1024 * 1024);
    co_return;
  });
  step_both([&] { return established; }, 100 * hw::kCyclesPerMillisecond);
  peer.link().set_up(false);  // no more ACKs
  step_both([] { return false; }, 50 * hw::kCyclesPerMillisecond);
  // Unacked in-flight bounded by window/segment (+slack for ACKs already
  // in flight when the link died).
  EXPECT_LE(k->net().stats().tcp_segments_tx, 2 * (64 * 1024 / 1448) + 8);
}

TEST_F(NetTest, IperfHarnessProducesWireLimitedNative) {
  workloads::NetperfParams p;
  p.iperf_bytes = 4 * 1024 * 1024;
  const auto r = Netperf::run(*k, peer, p);
  EXPECT_GT(r.tcp_mbit_s, 400.0);
  EXPECT_LT(r.tcp_mbit_s, 1000.0);
  EXPECT_GT(r.ping_rtt_us, 10.0);
  EXPECT_EQ(r.pings_lost, 0);
}

// The two-kernel path's golden: ping RTT, iperf throughput and both final
// clocks of a client/peer pair, for a native client and a split-I/O guest
// client. scripts/run_tiers.sh obsoff diffs these lines against
// tests/cycle_identity.golden, so a change to how the pair is stepped
// cannot move a simulated cycle unnoticed.
TEST(Netperf, CycleIdentityProbe) {
  for (const workloads::SystemId id :
       {workloads::SystemId::kNL, workloads::SystemId::kXU}) {
    workloads::SutParams sp;
    sp.machine_mem_kb = 256 * 1024;
    sp.kernel_mem_kb = 96 * 1024;
    sp.domu_mem_kb = 64 * 1024;
    auto sut = workloads::Sut::create(id, sp);
    PeerHost peer;
    peer.connect_to(sut->machine());
    workloads::NetperfParams p;
    p.ping_count = 5;
    p.iperf_bytes = 1024 * 1024;
    const workloads::NetperfResult r = Netperf::run(sut->kernel(), peer, p);
    ASSERT_EQ(r.pings_lost, 0);
    std::printf("CYCLE_IDENTITY netperf %s rtt_us=%.17g mbit_s=%.17g"
                " client=%" PRIu64 " peer=%" PRIu64 "\n",
                sut->label(), r.ping_rtt_us, r.tcp_mbit_s,
                sut->machine().max_cpu_time(),
                peer.machine().max_cpu_time());
  }
}

}  // namespace
}  // namespace mercury::testing
