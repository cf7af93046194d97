// The repository benchmark program.
//
//   mercury_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--out-dir <dir>]
//
// Repeats iterations of the workload (each: fresh system, set-up, fixed
// work, output checks) until --seconds of host time have passed, then
// prints every metric by name with its unit and, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the iterations alternate
// untraced and traced, and the metrics are the per-layer ones.
//
// Host metrics are medians over iterations, which rotate over the CPUs the
// process may run on, one CPU per iteration; setup_s and run_s are scaled by
// the machine-speed reference timed around each iteration (reference.hpp).
// Simulated-clock metrics come from the cycle model and must be identical in
// every iteration.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/postmortem.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::IterationResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/run.py checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"run_s", "s"},
    {"peak_rss_mb", "MB"},      {"attach_p50_us", "us"},
    {"attach_tail_us", "us"},   {"detach_p50_us", "us"},
    {"detach_tail_us", "us"},   {"pause_worst_us", "us"},
    {"availability", "fraction"}, {"app_sim_ms", "ms"},
    {"window_ms", "ms"},        {"downtime_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.attach.defer_us", "us"},
    {"core.attach.rendezvous_us", "us"},
    {"core.attach.page_info_us", "us"},
    {"core.attach.protect_us", "us"},
    {"core.attach.fixup_us", "us"},
    {"core.attach.bindings_us", "us"},
    {"core.attach.residual_us", "us"},
    {"core.detach.defer_us", "us"},
    {"core.detach.rendezvous_us", "us"},
    {"core.detach.unprotect_us", "us"},
    {"core.detach.bindings_us", "us"},
    {"core.detach.residual_us", "us"},
    {"core.switch.host_ms", "ms"},
    {"core.crew.utilization", "fraction"},
    {"core.warm.hit_ratio", "fraction"},
    {"core.warm.dirty_frames_p50", "count"},
    {"core.rollbacks", "count"},
    {"core.faults_injected", "count"},
    {"core.supervisor.retries", "count"},
    {"core.supervisor.commit_ratio", "fraction"},
    {"core.mercury.setup_ms", "ms"},
    {"core.self_ms", "ms"},
    {"vmm.page_info.frames_rebuilt", "count"},
    {"vmm.page_info.frames_retained", "count"},
    {"vmm.validations_skipped", "count"},
    {"vmm.migrate.pages_sent", "count"},
    {"vmm.migrate.copy_ratio", "ratio"},
    {"vmm.migrate.precopy_rounds", "count"},
    {"kernel.run_for.host_ms", "ms"},
    {"kernel.sim_mcycles_per_host_s", "Mcycles/s"},
    {"kernel.self_ms", "ms"},
    {"workloads.dbench_under_switches.mb_s", "MB/s"},
    {"workloads.dbench_under_switches.host_ms", "ms"},
    {"workloads.self_ms", "ms"},
    {"cluster.live-update.attach_ms", "ms"},
    {"cluster.live-update.service_ms", "ms"},
    {"cluster.live-update.detach_ms", "ms"},
    {"cluster.live-update.downtime_ms", "ms"},
    {"cluster.live-update.host_ms", "ms"},
    {"cluster.checkpoint-restart.attach_ms", "ms"},
    {"cluster.checkpoint-restart.service_ms", "ms"},
    {"cluster.checkpoint-restart.detach_ms", "ms"},
    {"cluster.checkpoint-restart.downtime_ms", "ms"},
    {"cluster.checkpoint-restart.host_ms", "ms"},
    {"cluster.migrate.attach_ms", "ms"},
    {"cluster.migrate.service_ms", "ms"},
    {"cluster.migrate.detach_ms", "ms"},
    {"cluster.migrate.downtime_ms", "ms"},
    {"cluster.migrate.host_ms", "ms"},
    {"cluster.node.setup_ms", "ms"},
    {"cluster.self_ms", "ms"},
    {"obs.pause.rendezvous-parked_us", "us"},
    {"obs.pause.crew-shard-work_us", "us"},
    {"obs.pause.tlb-shootdown_us", "us"},
    {"obs.pause.hypercall-emulation_us", "us"},
    {"obs.pause.rollback-unwind_us", "us"},
    {"obs.pause.supervisor-retry-backoff_us", "us"},
    {"obs.pause.migrate-stop-copy_us", "us"},
    {"obs.pause.checkpoint-copy_us", "us"},
    {"obs.pause.unattributed", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.self_ms", "ms"},
    {"hw.machine.setup_ms", "ms"},
    {"hw.self_ms", "ms"},
    {"perfbench.self_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mercury_perfbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!end || *end != '\0' || !(a.seconds > 0) || a.seconds > 120)
        usage("--seconds must be in (0, 120]");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_seed) usage("--seed <non-negative integer> is required");
  if (a.seconds == 0) usage("--seconds is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known |= w == a.workload;
  if (!known) usage(("unknown workload '" + a.workload + "'").c_str());
  return a;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Pins the calling thread to one CPU (best effort: a refusal leaves the
/// scheduler's choice in place).
void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double median_of(const std::vector<IterationResult>& its,
                 double IterationResult::*field) {
  std::vector<double> v;
  for (const IterationResult& r : its) v.push_back(r.*field);
  return perfbench::median(v);
}

double host_median(const std::vector<IterationResult>& its,
                   const std::string& key) {
  std::vector<double> v;
  for (const IterationResult& r : its) {
    const auto it = r.host.find(key);
    if (it != r.host.end()) v.push_back(it->second);
  }
  return perfbench::median(v);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::filesystem::create_directories(args.out_dir + "/postmortems");
  mercury::obs::set_postmortem_dir(args.out_dir + "/postmortems");

  // Iterate until the time is up; enough iterations for medians, and in
  // traced mode at least two traced and two untraced ones.
  const std::size_t min_iterations = args.trace ? 4 : 3;
  perfbench::Tracer& tracer = perfbench::tracer();
  std::vector<IterationResult> plain, traced;
  std::vector<std::map<std::string, double>> self_ms;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::map<std::string, double> sim;
  std::vector<double> reference_ms, raw_run_s;  // unscaled, for the log
  // Each iteration runs pinned to the next allowed CPU in turn. On a shared
  // host one virtual CPU can run identical work 1.5x slower than another
  // for minutes at a time, and a thread the scheduler leaves on one CPU
  // measures that CPU alone; rotating makes every run's medians cover all
  // of them.
  const std::vector<int> cpus = allowed_cpus();
  // The run length is wall time; the metrics are thread CPU time.
  const auto start = std::chrono::steady_clock::now();
  const auto wall_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  for (std::size_t i = 0; i < min_iterations || wall_s() < args.seconds;
       ++i) {
    // Traced runs pin each untraced/traced pair to the same CPU.
    if (!cpus.empty()) pin_to(cpus[(args.trace ? i / 2 : i) % cpus.size()]);
    const bool trace_this = args.trace && i % 2 == 1;
    const double reference_before = perfbench::reference_seconds();
    tracer.set_enabled(trace_this);
    const std::size_t first_span = tracer.spans().size();
    IterationResult r = perfbench::run_iteration(args.workload, args.seed);
    tracer.set_enabled(false);
    const double reference = reference_before + perfbench::reference_seconds();
    reference_ms.push_back(reference * 1e3);
    raw_run_s.push_back(r.run_s);
    std::fprintf(stderr,
                 "iteration %zu on cpu %d: reference %.6f s, setup %.6f s, "
                 "run %.6f s (unscaled)\n",
                 i, sched_getcpu(), reference, r.setup_s, r.run_s);
    r.setup_s *= perfbench::kReferenceNominalS / reference;
    r.run_s *= perfbench::kReferenceNominalS / reference;
    attempted += r.attempted;
    for (const std::string& f : r.failures)
      failures.push_back("iteration " + std::to_string(i) + ": " + f);
    if (i == 0) {
      sim = r.sim;
    } else if (r.sim != sim) {
      failures.push_back("iteration " + std::to_string(i) +
                         ": simulated results differ from iteration 0");
    }
    if (trace_this) {
      self_ms.push_back(tracer.self_ms_by_layer(first_span));
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
  }

  std::map<std::string, double> values = sim;
  const std::vector<MetricSpec> specs =
      args.trace ? std::vector<MetricSpec>(std::begin(kPerLayer), std::end(kPerLayer))
                 : std::vector<MetricSpec>(std::begin(kEndToEnd), std::end(kEndToEnd));
  if (!args.trace) {
    values["setup_s"] = median_of(plain, &IterationResult::setup_s);
    values["run_s"] = median_of(plain, &IterationResult::run_s);
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    for (const MetricSpec& m : kPerLayer)
      if (!values.count(m.name)) values[m.name] = host_median(traced, m.name);
    for (const char* layer :
         {"core", "kernel", "workloads", "cluster", "obs", "hw", "perfbench"}) {
      std::vector<double> v;
      for (const auto& s : self_ms) {
        const auto it = s.find(layer);
        v.push_back(it == s.end() ? 0.0 : it->second);
      }
      values[std::string(layer) + ".self_ms"] = perfbench::median(v);
    }
    const double plain_run = median_of(plain, &IterationResult::run_s);
    const double traced_run = median_of(traced, &IterationResult::run_s);
    values["obs.trace_overhead_pct"] = (traced_run / plain_run - 1.0) * 100.0;
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (tracer.write_json(path))
      std::printf("spans written to %s (%zu spans)\n", path.c_str(),
                  tracer.spans().size());
    else
      failures.push_back("cannot write " + path);
  }

  std::printf("workload %s, seed %llu, %zu iterations (%zu traced) in %.1f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              plain.size() + traced.size(), traced.size(), wall_s());
  std::printf("reference pair %.3f ms (nominal %.0f ms), unscaled run %.6f s "
              "(medians)\n",
              perfbench::median(reference_ms), perfbench::kReferenceNominalS * 1e3,
              perfbench::median(raw_run_s));
  for (const char* dir : {"attach", "detach"}) {
    const std::string d(dir);
    std::printf("%s tail = p%.1f of %.0f samples\n", dir,
                sim[d + ".tail_percentile"], sim[d + ".samples"]);
  }
  for (const MetricSpec& m : specs) {
    const double v = values[m.name];
    if (!std::isfinite(v))
      failures.push_back(std::string(m.name) + " is not a finite number");
    std::printf("%-42s %16.6f %s\n", m.name, v, m.unit);
  }
  const std::uint64_t failed = failures.size();
  std::printf("fail_rate %llu/%llu = %.6f\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              attempted ? static_cast<double>(failed) / attempted : 0.0);
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());

  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const MetricSpec& m : specs) {
    const double v = std::isfinite(values[m.name]) ? values[m.name] : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, v, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
