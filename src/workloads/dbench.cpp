#include "workloads/dbench.hpp"

#include <string>
#include <vector>

#include "kernel/fs/minifs.hpp"
#include "kernel/syscalls.hpp"
#include "util/assert.hpp"

namespace mercury::workloads {

using kernel::Kernel;
using kernel::Sub;
using kernel::Sys;

DbenchResult Dbench::run(Kernel& k, const DbenchParams& p) {
  int finished = 0;
  std::uint64_t bytes_moved = 0;

  // pdflush: periodic write-back of aged dirty buffers. Self-rearming timer
  // with shared-ownership state (it may outlive this function's frame).
  const hw::Cycles interval = hw::us_to_cycles(p.flusher_interval_ms * 1000.0);
  auto flusher_on = std::make_shared<bool>(true);
  auto flush_tick = std::make_shared<std::function<void()>>();
  Kernel* kp = &k;
  // Capture the re-arm handle weakly: a shared self-capture would be a
  // refcount cycle (the function object owning itself) and never free.
  std::weak_ptr<std::function<void()>> weak_tick = flush_tick;
  *flush_tick = [kp, p, interval, flusher_on, weak_tick] {
    if (!*flusher_on) return;
    const auto tick = weak_tick.lock();
    if (!tick) return;
    hw::Cpu& cpu = kp->machine().cpu(0);
    kp->fs().writeback_some(cpu, p.flusher_blocks);
    kp->add_timer(cpu.now() + interval, *tick);
  };
  k.add_timer(k.machine().cpu(0).now() + interval, *flush_tick);

  const hw::Cycles t0 = k.earliest_cpu_time();
  for (int c = 0; c < p.clients; ++c) {
    k.spawn("dbench-client", [&, c, p](Sys& s) -> Sub<void> {
      const std::string dir = "/dbench/client" + std::to_string(c);
      s.mkdir(dir);
      // The metadata storm's paths are the same every loop: build them once.
      std::vector<std::string> probes;
      std::vector<std::string> subs;
      for (int m = 0; m < 5; ++m)
        probes.push_back(dir + "/probe" + std::to_string(m));
      for (int m = 0; m < p.metadata_ops_per_loop; m += 6)
        subs.push_back(dir + "/sub" + std::to_string(m));
      for (int loop = 0; loop < p.loops_per_client; ++loop) {
        const std::string file = dir + "/f" + std::to_string(loop) + ".dat";
        // NetBench-ish metadata storm.
        for (int m = 0; m < p.metadata_ops_per_loop; ++m) {
          s.stat(probes[m % 5]);
          if (m % 6 == 0) s.mkdir(subs[m / 6]);
        }
        // Write the file in chunks, re-read it, delete it.
        const int fd = s.open(file, /*create=*/true);
        MERC_CHECK(fd >= 0);
        const std::size_t chunks = p.file_kb / p.chunk_kb;
        for (std::size_t ch = 0; ch < chunks; ++ch) {
          const std::size_t n =
              co_await s.file_write(fd, p.chunk_kb * 1024);
          bytes_moved += n;
        }
        s.seek(fd, 0);
        for (std::size_t ch = 0; ch < chunks; ++ch) {
          const std::size_t n = co_await s.file_read(fd, p.chunk_kb * 1024);
          bytes_moved += n;
        }
        s.close(fd);
        s.unlink(file);
        if (p.fsync_every_loops > 0 && (loop + 1) % p.fsync_every_loops == 0) {
          // The mix's Flush op: a durability point on a fresh log segment.
          const std::string log = dir + "/log" + std::to_string(loop);
          const int lfd = s.open(log, true);
          bytes_moved += co_await s.file_write(lfd, 48 * 1024);
          s.fsync(lfd);
          s.close(lfd);
        }
      }
      ++finished;
      co_return;
    });
  }

  MERC_CHECK_MSG(
      k.run_until([&] { return finished == p.clients; },
                  600ull * 1000 * hw::kCyclesPerMillisecond),
      "dbench did not finish");
  *flusher_on = false;
  k.reap_zombies();

  DbenchResult r;
  r.elapsed = k.earliest_cpu_time() - t0;
  r.bytes_moved = bytes_moved;
  const double seconds =
      static_cast<double>(r.elapsed) /
      (static_cast<double>(hw::kCyclesPerMicrosecond) * 1e6);
  r.throughput_mb_s =
      static_cast<double>(bytes_moved) / (1024.0 * 1024.0) / seconds;
  return r;
}

}  // namespace mercury::workloads
