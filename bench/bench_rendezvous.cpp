// §8 (future work) ablation: mode-switch rendezvous scalability — the
// paper's IPI + shared-variable protocol vs the loosely-coupled tree
// protocol it suggests for larger core counts.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <cstdio>
#include <memory>

#include "core/rendezvous.hpp"
#include "util/table.hpp"

namespace {

using mercury::core::Rendezvous;
using mercury::core::RendezvousProtocol;

double rendezvous_us(std::size_t cpus, RendezvousProtocol proto) {
  mercury::hw::MachineConfig mc;
  mc.num_cpus = cpus;
  mc.mem_kb = 64 * 1024;
  mercury::hw::Machine machine(mc);
  // Skew the clocks a little, as real CPUs are never aligned.
  for (std::size_t i = 0; i < cpus; ++i)
    machine.cpu(i).charge(1000 + 313 * i);
  Rendezvous rv(machine, machine.cpu(0), proto);
  rv.park();
  return mercury::hw::cycles_to_us(rv.release().latency());
}

void BM_RendezvousIpi32(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["sim_us"] =
        rendezvous_us(32, RendezvousProtocol::kIpiSharedVar);
  }
}
BENCHMARK(BM_RendezvousIpi32)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  const mercury::bench::ObsOptions obs_opts =
      mercury::bench::consume_obs_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  mercury::util::Table t(
      {"CPUs", "ipi+shared-var (us)", "tree (us)", "tree speedup"});
  for (const std::size_t cpus : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
    const double ipi = rendezvous_us(cpus, RendezvousProtocol::kIpiSharedVar);
    const double tree = rendezvous_us(cpus, RendezvousProtocol::kTree);
    t.add_numeric_row(std::to_string(cpus),
                      {ipi, tree, tree > 0 ? ipi / tree : 0.0}, 3);
  }
  std::printf("\n=== Rendezvous protocol scalability (mode-switch barrier) ===\n%s\n",
              t.render().c_str());
  std::printf("paper §8: \"a more loosely-coupled synchronization protocol "
              "might be necessary ... instead of current protocols using IPI "
              "and shared variables\" — the cacheline-bouncing shared counter "
              "grows linearly with core count, the tree logarithmically.\n");
  mercury::bench::write_obs_artifacts(obs_opts);
  return 0;
}
