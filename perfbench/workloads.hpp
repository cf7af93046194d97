// The benchmark's four workloads. Each iteration builds a fresh system,
// runs one fixed amount of work on it, and checks the outputs.
//
// Every workload draws its inputs from the seed alone, so all iterations of
// a run repeat the same simulation: the simulated-clock values of every
// iteration must be identical (main.cpp checks it), and only the host
// timings differ between iterations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct IterationResult {
  double setup_s = 0;  // host: construction, boot, pre-cache, warm-up
  double run_s = 0;    // host: the fixed work
  /// Simulated-clock values (and counts derived from them).
  std::map<std::string, double> sim;
  /// Host-clock per-layer values of this iteration.
  std::map<std::string, double> host;
  /// Operations attempted (switch requests, supervised requests, arcs,
  /// application runs) and the failures among them, one line each.
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
};

const std::vector<std::string>& workload_names();

/// Run one iteration of `workload` with inputs drawn from `seed`. Throws
/// std::invalid_argument for an unknown workload name.
IterationResult run_iteration(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
