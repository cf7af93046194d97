// Workload drivers + cross-system orderings: the relationships the paper's
// tables/figures depend on must hold for every seed and system.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "kernel/fs/minifs.hpp"
#include "workloads/configs.hpp"
#include "workloads/dbench.hpp"
#include "workloads/kbuild.hpp"
#include "workloads/lmbench.hpp"
#include "workloads/osdb.hpp"

namespace mercury::testing {
namespace {

using workloads::Dbench;
using workloads::Kbuild;
using workloads::Lmbench;
using workloads::LmbenchParams;
using workloads::Osdb;
using workloads::Sut;
using workloads::SutParams;
using workloads::SystemId;

SutParams quick() {
  SutParams p;
  p.machine_mem_kb = 384 * 1024;
  p.kernel_mem_kb = 128 * 1024;
  p.domu_mem_kb = 96 * 1024;
  return p;
}

LmbenchParams fast_lm() {
  LmbenchParams lp;
  lp.fork_iters = 6;
  lp.exec_iters = 4;
  lp.sh_iters = 2;
  lp.ctx_rounds = 20;
  lp.mmap_iters = 1;
  lp.mmap_pages = 512;
  lp.fault_iters = 60;
  lp.pagefault_iters = 1;
  lp.pagefault_pages = 256;
  return lp;
}

class SystemParamTest : public ::testing::TestWithParam<SystemId> {};

TEST_P(SystemParamTest, LmbenchRunsAndProducesPositiveLatencies) {
  auto sut = Sut::create(GetParam(), quick());
  const auto r = Lmbench::run(sut->kernel(), fast_lm());
  EXPECT_GT(r.fork_us, 0);
  EXPECT_GT(r.exec_us, r.fork_us) << "exec includes a fork";
  EXPECT_GT(r.sh_us, r.exec_us) << "sh includes fork+exec(sh)+exec(cmd)";
  EXPECT_GT(r.ctx_16p64k_us, r.ctx_16p16k_us);
  EXPECT_GT(r.ctx_16p16k_us, r.ctx_2p0k_us);
  EXPECT_GT(r.page_fault_us, 0.2);
  EXPECT_GT(r.prot_fault_us, 0.2);
  EXPECT_LT(r.prot_fault_us, r.page_fault_us * 3);
  if (auto* hv = sut->hypervisor()) {
    EXPECT_EQ(hv->stats().domains_crashed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SystemParamTest,
                         ::testing::ValuesIn(workloads::kAllSystems),
                         [](const auto& info) {
                           std::string s = workloads::system_label(info.param);
                           s.erase(std::remove(s.begin(), s.end(), '-'), s.end());
                           return s;
                         });

TEST(OrderingTest, VirtualizedForkIsSeveralTimesNative) {
  LmbenchParams lp = fast_lm();
  auto nl = Sut::create(SystemId::kNL, quick());
  auto x0 = Sut::create(SystemId::kX0, quick());
  auto mn = Sut::create(SystemId::kMN, quick());
  const double f_nl = Lmbench::fork_latency(nl->kernel(), lp);
  const double f_x0 = Lmbench::fork_latency(x0->kernel(), lp);
  const double f_mn = Lmbench::fork_latency(mn->kernel(), lp);
  EXPECT_GT(f_x0, 3.0 * f_nl) << "Xen fork must be several times native";
  EXPECT_GT(f_mn, f_nl) << "Mercury native pays its VO dispatch";
  EXPECT_LT(f_mn, 1.35 * f_nl) << "...but only a modest amount (paper ~16%)";
}

TEST(OrderingTest, MercuryVirtualTracksXenDom0) {
  LmbenchParams lp = fast_lm();
  auto x0 = Sut::create(SystemId::kX0, quick());
  auto mv = Sut::create(SystemId::kMV, quick());
  const double pf_x0 = Lmbench::page_fault_latency(x0->kernel(), lp);
  const double pf_mv = Lmbench::page_fault_latency(mv->kernel(), lp);
  EXPECT_GT(pf_mv, pf_x0 * 0.95);
  EXPECT_LT(pf_mv, pf_x0 * 1.25) << "M-V within a few percent of X-0";
}

TEST(OrderingTest, SmpLatenciesExceedUp) {
  LmbenchParams lp = fast_lm();
  auto up = Sut::create(SystemId::kNL, quick());
  SutParams smp_p = quick();
  smp_p.cpus = 2;
  auto smp = Sut::create(SystemId::kNL, smp_p);
  const double f_up = Lmbench::fork_latency(up->kernel(), lp);
  const double f_smp = Lmbench::fork_latency(smp->kernel(), lp);
  EXPECT_GT(f_smp, f_up) << "Table 2 > Table 1 everywhere";
}

TEST(DbenchTest, ProducesThroughputAndCleansUp) {
  auto sut = Sut::create(SystemId::kNL, quick());
  workloads::DbenchParams p;
  p.clients = 2;
  p.loops_per_client = 6;
  const auto r = Dbench::run(sut->kernel(), p);
  EXPECT_GT(r.throughput_mb_s, 0);
  EXPECT_GT(r.bytes_moved, 0u);
  EXPECT_EQ(sut->kernel().live_tasks(), 0u);
}

TEST(DbenchTest, DomUOutrunsDom0ViaWriteBehind) {
  workloads::DbenchParams p;
  p.clients = 2;
  p.loops_per_client = 12;
  auto x0 = Sut::create(SystemId::kX0, quick());
  auto xu = Sut::create(SystemId::kXU, quick());
  const double t_x0 = Dbench::run(x0->kernel(), p).throughput_mb_s;
  const double t_xu = Dbench::run(xu->kernel(), p).throughput_mb_s;
  EXPECT_GT(t_xu, t_x0) << "paper §7.3's dbench anomaly";
}

// Pins the file path's simulated clock (tests/cycle_identity.golden; the
// obs-off tier diffs these lines). A small dbench mix with a frequent,
// narrow flusher (cache hits, dirty blocks taken oldest first, fsyncs,
// unlinks), then one 66 MB file through the 64 MB guest cache (dirty
// evictions in LRU order, and a read-back that misses). X-U adds the
// backend's write-behind cache under the guest's.
TEST(DbenchTest, CycleIdentityProbe) {
  workloads::DbenchParams mix;
  mix.clients = 2;
  mix.loops_per_client = 12;
  mix.fsync_every_loops = 4;
  mix.flusher_interval_ms = 1.0;
  mix.flusher_blocks = 16;
  workloads::DbenchParams overflow;
  overflow.clients = 1;
  overflow.loops_per_client = 1;
  overflow.file_kb = 66 * 1024;
  overflow.chunk_kb = 256;
  overflow.fsync_every_loops = 0;
  for (const SystemId id : {SystemId::kNL, SystemId::kXU}) {
    auto sut = Sut::create(id, quick());
    const auto r1 = Dbench::run(sut->kernel(), mix);
    const auto r2 = Dbench::run(sut->kernel(), overflow);
    const kernel::BlockCache& cache = sut->kernel().fs().cache();
    const hw::Disk& disk = sut->machine().disk();
    std::printf("CYCLE_IDENTITY dbench %s elapsed=%" PRIu64 "+%" PRIu64
                " bytes=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64
                " disk_reads=%" PRIu64 " disk_writes=%" PRIu64,
                sut->label(), r1.elapsed, r2.elapsed,
                r1.bytes_moved + r2.bytes_moved, cache.hits(), cache.misses(),
                disk.reads(), disk.writes());
    if (vmm::Hypervisor* hv = sut->hypervisor()) {
      const kernel::BlockCache& back = hv->blk_backend().cache();
      std::printf(" backend_hits=%" PRIu64 " backend_misses=%" PRIu64,
                  back.hits(), back.misses());
    }
    std::printf("\n");
  }
}

TEST(OsdbTest, WarmCacheQueriesAreFast) {
  auto sut = Sut::create(SystemId::kNL, quick());
  workloads::OsdbParams p;
  p.table_mb = 8;
  p.queries = 12;
  const auto r = Osdb::run(sut->kernel(), p);
  EXPECT_GT(r.queries_per_sec, 100.0);
  EXPECT_LT(r.mean_query_us, 10'000.0);
}

TEST(KbuildTest, ParallelBuildScalesOnSmp) {
  workloads::KbuildParams p;
  p.translation_units = 6;
  p.compile_cpu_ms = 8.0;
  auto up = Sut::create(SystemId::kNL, quick());
  SutParams smp_p = quick();
  smp_p.cpus = 2;
  auto smp = Sut::create(SystemId::kNL, smp_p);
  const double t_up = Kbuild::run(up->kernel(), p).build_seconds;
  const double t_smp = Kbuild::run(smp->kernel(), p).build_seconds;
  EXPECT_LT(t_smp, 0.75 * t_up) << "make -j2 must be visibly faster";
}

TEST(KbuildTest, VirtualizationCostsSingleDigitPercent) {
  workloads::KbuildParams p;
  p.translation_units = 5;
  auto nl = Sut::create(SystemId::kNL, quick());
  auto x0 = Sut::create(SystemId::kX0, quick());
  const double t_nl = Kbuild::run(nl->kernel(), p).build_seconds;
  const double t_x0 = Kbuild::run(x0->kernel(), p).build_seconds;
  const double overhead = t_x0 / t_nl - 1.0;
  EXPECT_GT(overhead, 0.02);
  EXPECT_LT(overhead, 0.25) << "paper: ~9%";
}

}  // namespace
}  // namespace mercury::testing
