#include "workloads/netperf.hpp"

#include "kernel/net/stack.hpp"
#include "kernel/stepper.hpp"
#include "kernel/syscalls.hpp"
#include "util/assert.hpp"

namespace mercury::workloads {

using kernel::Kernel;
using kernel::Sub;
using kernel::Sys;

PeerHost::PeerHost(std::uint32_t addr) {
  hw::MachineConfig mc;
  mc.num_cpus = 1;
  mc.mem_kb = 128 * 1024;
  mc.nic_addr = addr;
  machine_ = std::make_unique<hw::Machine>(mc);
  machine_->nic().bind_irq(&machine_->interrupts(), 0);
  native_vo_ = std::make_unique<core::NativeVo>(*machine_);
  kernel_ = std::make_unique<Kernel>(*machine_, *native_vo_, "peer-host");
  hw::Pfn first = 0;
  MERC_CHECK(machine_->frames().alloc_contiguous(16384, first));
  kernel_->boot(first, 16384);
  machine_->install_trap_sink(kernel_.get());
}

void PeerHost::connect_to(hw::Machine& other, hw::Link::Params params) {
  link_ = std::make_unique<hw::Link>(params);
  link_->attach(&other.nic(), &machine_->nic());
}

NetperfResult Netperf::run(Kernel& client, PeerHost& peer,
                           const NetperfParams& p) {
  NetperfResult result;
  const std::uint32_t peer_addr = peer.machine().nic().address();

  // --- ping ---
  {
    bool done = false;
    double rtt_sum = 0;
    int rtt_n = 0, lost = 0;
    client.spawn("ping", [&, p, peer_addr](Sys& s) -> Sub<void> {
      for (int i = 0; i < p.ping_count; ++i) {
        const double rtt = co_await s.ping(peer_addr, p.ping_bytes, p.timeout_us);
        if (rtt >= 0) {
          rtt_sum += rtt;
          ++rtt_n;
        } else {
          ++lost;
        }
      }
      done = true;
      co_return;
    });
    MERC_CHECK_MSG(
        kernel::step_until({&client, &peer.kernel()}, [&] { return done; },
                           60ull * 1000 * hw::kCyclesPerMillisecond),
        "ping did not finish");
    result.ping_rtt_us = rtt_n > 0 ? rtt_sum / rtt_n : -1.0;
    result.pings_lost = lost;
  }

  // --- iperf (TCP) ---
  {
    constexpr std::uint16_t kPort = 5001;
    bool server_ready = false, server_done = false, client_done = false;
    hw::Cycles t0 = 0, t1 = 0;

    peer.kernel().spawn("iperf-server", [&, p](Sys& s) -> Sub<void> {
      const int lfd = s.tcp_listen(kPort);
      server_ready = true;
      const int conn = co_await s.tcp_accept(lfd, p.timeout_us * 50);
      if (conn >= 0) {
        std::size_t got = 0;
        while (got < p.iperf_bytes) {
          const std::size_t n =
              co_await s.tcp_recv(conn, 256 * 1024, p.timeout_us * 50);
          if (n == 0) break;
          got += n;
        }
      }
      server_done = true;
      co_return;
    });

    client.spawn("iperf-client", [&, p, peer_addr](Sys& s) -> Sub<void> {
      while (!server_ready) co_await s.sleep_us(100.0);
      const int fd = s.tcp_connect(peer_addr, kPort);
      t0 = s.cpu().now();
      co_await s.tcp_send(fd, p.iperf_bytes);
      t1 = s.cpu().now();
      s.close_socket(fd);
      client_done = true;
      co_return;
    });

    MERC_CHECK_MSG(
        kernel::step_until({&client, &peer.kernel()},
                           [&] { return client_done && server_done; },
                           3000ull * 1000 * hw::kCyclesPerMillisecond),
        "iperf did not finish");
    const double seconds = hw::cycles_to_us(t1 - t0) / 1e6;
    result.tcp_mbit_s =
        static_cast<double>(p.iperf_bytes) * 8.0 / 1e6 / seconds;
  }

  client.reap_zombies();
  peer.kernel().reap_zombies();
  return result;
}

}  // namespace mercury::workloads
