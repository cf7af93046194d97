// The cluster observability plane end-to-end, through the public
// ClusterSoak surface: a switch wave renders as one causally-linked trace
// across nodes, the time-series document is byte-identical for identical
// params, the engine profiler attributes wall time to engine work classes,
// and the fleet verdict carries per-node sections. Also here: the flight
// ring, the Chrome trace and the pause ledger agree on every interval of a
// switch round trip, a rolled-back switch and a checkpoint-restart arc.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/depend.hpp"
#include "cluster/soak.hpp"
#include "core/fault_inject.hpp"
#include "core/mercury.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "tests/json_checker.hpp"
#include "tests/test_seed.hpp"

namespace mercury::testing {
namespace {

// Small fleet, two waves: enough for one attach wave and one detach wave
// while keeping the sim short.
cluster::ClusterSoakParams small_params() {
  cluster::ClusterSoakParams p;
  p.nodes = 3;
  p.cpus_per_node = 2;
  p.waves = 2;
  p.seed = 42;
  p.wave_interval_ms = 2.0;
  p.sample_interval_ms = 0.5;
  p.sample_capacity = 64;
  return p;
}

#if MERCURY_OBS_ENABLED

TEST(ClusterObs, SwitchWaveFormsOneCausalTraceAcrossNodes) {
  obs::TraceBuffer& buf = obs::trace_buffer();
  buf.set_enabled(true);
  buf.clear();

  cluster::ClusterSoak soak(small_params());
  ASSERT_TRUE(soak.run());

  const auto evs = buf.events();
  // Each wave records a root "cluster.wave" event carrying the wave's
  // trace id. Use the newest wave: it is the least likely to have lost
  // children to ring wrap.
  const obs::TraceEvent* wave = nullptr;
  for (const auto& e : evs)
    if (std::strcmp(e.name, "cluster.wave") == 0) wave = &e;
  ASSERT_NE(wave, nullptr);
  const std::uint64_t trace = wave->trace_id;
  ASSERT_NE(trace, 0u);

  // The per-node fabric message spans must share that trace id and be
  // attributed to distinct cluster nodes (Chrome pids).
  std::set<std::uint32_t> msg_nodes;
  std::set<std::uint64_t> msg_spans;
  for (const auto& e : evs)
    if (std::strcmp(e.name, "fabric.msg.switch") == 0 && e.trace_id == trace) {
      msg_nodes.insert(e.node);
      msg_spans.insert(e.span_id);
    }
  EXPECT_GE(msg_nodes.size(), 2u)
      << "one wave should span >= 2 distinct nodes";

  // The engine's commit span resolves asynchronously (submit -> interrupt
  // -> commit), yet must still link beneath the wave's message span via
  // the captured SpanContext.
  bool commit_linked = false;
  for (const auto& e : evs) {
    const bool is_commit = std::strcmp(e.name, "switch.attach") == 0 ||
                           std::strcmp(e.name, "switch.detach") == 0;
    if (is_commit && e.trace_id == trace && msg_spans.count(e.parent_id) > 0)
      commit_linked = true;
  }
  EXPECT_TRUE(commit_linked)
      << "no commit span chained to a fabric.msg.switch span of trace "
      << trace;

  const std::string json = obs::chrome_trace_json(buf);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  buf.clear();
}

TEST(ClusterObs, ProfilerAttributesEngineWorkDuringSoak) {
  obs::EngineProfiler& prof = obs::profiler();
  prof.reset();
  prof.set_enabled(true);

  cluster::ClusterSoak soak(small_params());
  ASSERT_TRUE(soak.run());
  prof.set_enabled(false);

  const auto snap = prof.snapshot();
  std::uint64_t commit_count = 0;
  std::uint64_t kernel_step_count = 0;
  for (const auto& b : snap) {
    if (b.name == "switch.commit") commit_count = b.count;
    if (b.name.rfind("kernel.step.", 0) == 0) kernel_step_count += b.count;
  }
  // Every committed switch runs under the switch.commit bucket; the kernel
  // step branches dominate event counts.
  EXPECT_GT(commit_count, 0u);
  EXPECT_GT(kernel_step_count, commit_count);

  const std::string json = obs::profile_json();
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"mercury.profile.v1\""), std::string::npos);
  EXPECT_NE(json.find("switch.commit"), std::string::npos);
  prof.reset();
}

/// Rings large enough to hold every event of one scenario, emptied on entry;
/// the default capacities come back on exit.
struct FullRings {
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;
  FullRings() {
    obs::flight_recorder().set_capacity(kCapacity);
    obs::trace_buffer().set_capacity(kCapacity);
    obs::trace_buffer().set_enabled(true);
  }
  ~FullRings() {
    obs::flight_recorder().set_capacity(
        obs::FlightRecorder::kDefaultCapacityPerCpu);
    obs::trace_buffer().set_capacity(obs::TraceBuffer::kDefaultCapacityPerCpu);
  }
};

/// One interval as a Chrome span would show it.
using SpanKey = std::tuple<std::string, obs::TraceCat, std::uint32_t,
                           hw::Cycles, hw::Cycles>;

/// Every interval in the flight ring must appear as the same Chrome span,
/// and per pause cause the ring's intervals must add up to the ledger's.
void expect_recorders_agree(const obs::PauseLedger& ledger,
                            const std::string& scenario) {
  SCOPED_TRACE(scenario);
  ASSERT_EQ(obs::flight_recorder().dropped(), 0u);
  ASSERT_EQ(obs::trace_buffer().dropped(), 0u);

  // Pair the flight ring's begin and end records per CPU, innermost first.
  std::map<std::uint32_t, std::vector<obs::FlightEvent>> open;
  std::array<std::vector<SpanKey>, obs::kIntervalKindCount> by_kind;
  std::array<std::uint64_t, obs::kPauseCauseCount> count{};
  std::array<hw::Cycles, obs::kPauseCauseCount> total{};
  for (const obs::FlightEvent& ev : obs::flight_recorder().events()) {
    if (ev.type == obs::FlightType::kPhaseBegin) {
      open[ev.cpu].push_back(ev);
      continue;
    }
    if (ev.type != obs::FlightType::kPhaseEnd) continue;
    ASSERT_FALSE(open[ev.cpu].empty()) << ev.name << " ended unopened";
    const obs::FlightEvent begin = open[ev.cpu].back();
    open[ev.cpu].pop_back();
    ASSERT_EQ(begin.arg0, ev.arg0) << ev.name;
    ASSERT_STREQ(begin.name, ev.name);
    EXPECT_EQ(begin.at + ev.arg1, ev.at) << ev.name;
    ASSERT_LT(ev.arg0, obs::kIntervalKindCount);
    const obs::IntervalKindInfo& info = obs::kIntervalKinds[ev.arg0];
    by_kind[ev.arg0].emplace_back(ev.name, info.cat, ev.cpu, begin.at, ev.at);
    if (info.cause != obs::PauseCause::kCauseCount) {
      ++count[static_cast<std::size_t>(info.cause)];
      total[static_cast<std::size_t>(info.cause)] += ev.arg1;
    }
  }
  for (const auto& [cpu, stack] : open)
    EXPECT_TRUE(stack.empty()) << stack.size() << " open on cpu " << cpu;

  for (std::size_t c = 0; c < obs::kPauseCauseCount; ++c) {
    const auto cause = static_cast<obs::PauseCause>(c);
    EXPECT_EQ(count[c], ledger.count(cause)) << obs::pause_cause_name(cause);
    EXPECT_EQ(total[c], ledger.total(cause)) << obs::pause_cause_name(cause);
  }
  EXPECT_EQ(ledger.unattributed(), 0u);

  // A zero-length interval exports as an instant, so instants take part in
  // the match; the markers among them are the only trace events left over.
  std::multiset<SpanKey> spans;
  for (const obs::TraceEvent& ev : obs::trace_buffer().events())
    spans.emplace(ev.name, ev.cat, ev.cpu, ev.begin, ev.end);
  for (std::size_t k = 0; k < obs::kIntervalKindCount; ++k) {
    std::size_t missing = 0;
    for (const SpanKey& key : by_kind[k]) {
      const auto it = spans.find(key);
      if (it == spans.end()) {
        ++missing;
      } else {
        spans.erase(it);
      }
    }
    EXPECT_EQ(missing, 0u) << obs::kIntervalKinds[k].name << ": "
                           << by_kind[k].size() << " in the flight ring";
  }
  std::size_t unmatched = 0;
  for (const SpanKey& key : spans)
    if (std::get<3>(key) != std::get<4>(key)) ++unmatched;
  EXPECT_EQ(unmatched, 0u) << "Chrome spans with no flight interval";
}

TEST(ClusterObs, FlightRingTraceAndLedgerAgreeOnEveryInterval) {
  const std::uint64_t seed = test_seed(0x1A7E5u);
  {
    // A seeded attach/detach round trip on 4 CPUs with a crew of 3.
    FullRings rings;
    obs::PauseLedger ledger;
    obs::PauseLedgerScope scope(ledger);
    hw::MachineConfig mc;
    mc.mem_kb = 128 * 1024;
    mc.num_cpus = 4;
    hw::Machine machine(mc);
    core::MercuryConfig cfg;
    cfg.kernel_frames = (64ull * 1024 * 1024) / hw::kPageSize;
    cfg.switch_config.crew_workers = 3;
    core::Mercury m(machine, cfg);
    const std::size_t pages = 8 + seed % 57;
    m.kernel().spawn("toucher", [pages](kernel::Sys& s) -> kernel::Sub<void> {
      const hw::VirtAddr va = s.mmap(pages * hw::kPageSize, true);
      for (;;) {
        s.touch_pages(va, pages, true);
        co_await s.compute_us(100.0);
      }
    });
    m.kernel().run_for((1 + seed % 5) * hw::kCyclesPerMillisecond);
    ASSERT_TRUE(m.switch_to(core::ExecMode::kPartialVirtual));
    m.kernel().run_for(2 * hw::kCyclesPerMillisecond);
    ASSERT_TRUE(m.switch_to(core::ExecMode::kNative));
    expect_recorders_agree(ledger, "round trip");
  }
  {
    // A switch rolled back by a fault in a type-and-protect shard.
    obs::set_postmortem_dir(::testing::TempDir());
    FullRings rings;
    obs::PauseLedger ledger;
    obs::PauseLedgerScope scope(ledger);
    hw::MachineConfig mc;
    mc.mem_kb = 128 * 1024;
    mc.num_cpus = 4;
    hw::Machine machine(mc);
    core::MercuryConfig cfg;
    cfg.kernel_frames = (64ull * 1024 * 1024) / hw::kPageSize;
    cfg.switch_config.crew_workers = 3;
    core::Mercury m(machine, cfg);
    core::FaultPlan plan;
    plan.site = core::FaultSite::kShardProtect;
    core::fault_injector().arm(plan);
    m.engine().request(core::ExecMode::kPartialVirtual);
    const bool idle = m.kernel().run_until([&] { return m.engine().idle(); },
                                           300 * hw::kCyclesPerMillisecond);
    core::fault_injector().disarm();
    if (!::testing::Test::HasFailure()) obs::remove_own_postmortems();
    obs::set_postmortem_dir("");
    ASSERT_TRUE(idle);
    ASSERT_EQ(m.engine().stats().rollbacks, 1u);
    ASSERT_EQ(m.mode(), core::ExecMode::kNative);
    EXPECT_GT(ledger.count(obs::PauseCause::kRollbackUnwind), 0u);
    expect_recorders_agree(ledger, "rolled-back switch");
  }
  {
    // A checkpoint-restart arc, which keeps its ledger on its report.
    FullRings rings;
    cluster::Fabric f;
    cluster::NodeConfig nc;
    nc.cpus = 2;
    nc.mem_kb = 128 * 1024;
    nc.kernel_mem_kb = 32 * 1024;
    cluster::Node& n = f.add_node("ckpt", nc);
    cluster::DependConfig cfg;
    cfg.supervisor.seed = seed;
    const cluster::ArcReport r = cluster::checkpoint_restart_arc(n, cfg);
    ASSERT_TRUE(r.success);
    EXPECT_GT(r.pauses.count(obs::PauseCause::kCheckpointCopy), 0u);
    expect_recorders_agree(r.pauses, "checkpoint-restart arc");
  }
}

#endif  // MERCURY_OBS_ENABLED

// Determinism holds in both obs configurations: the sampled series read
// run-owned state only, so two fresh runs with identical params emit a
// byte-identical mercury.timeseries.v1 document.
TEST(ClusterObs, TimeseriesIsByteIdenticalAcrossRuns) {
  std::string first, second;
  {
    cluster::ClusterSoak soak(small_params());
    ASSERT_TRUE(soak.run());
    first = soak.timeseries_json();
  }
  {
    cluster::ClusterSoak soak(small_params());
    ASSERT_TRUE(soak.run());
    second = soak.timeseries_json();
  }
  EXPECT_EQ(first, second);
  EXPECT_TRUE(JsonChecker(first).ok()) << first.substr(0, 400);
  EXPECT_NE(first.find("\"schema\":\"mercury.timeseries.v1\""),
            std::string::npos);
  // Per-node series carry the node label; fleet series an empty one.
  EXPECT_NE(first.find("node=n0"), std::string::npos);
  EXPECT_NE(first.find("fleet.inflight"), std::string::npos);
}

TEST(ClusterObs, FleetReportCarriesPerNodeSections) {
  const cluster::ClusterSoakParams p = small_params();
  cluster::ClusterSoak soak(p);
  ASSERT_TRUE(soak.run());

  const cluster::SoakReport r = soak.report();
  ASSERT_EQ(r.nodes.size(), p.nodes);
  std::uint64_t committed = 0;
  std::set<std::string> names;
  for (const auto& n : r.nodes) {
    EXPECT_FALSE(n.name.empty());
    names.insert(n.name);
    EXPECT_EQ(n.submitted, p.waves);
    EXPECT_GE(n.availability, 0.0);
    EXPECT_LE(n.availability, 1.0);
    EXPECT_GT(n.span_cycles, 0u);
    committed += n.committed;
    // Per-node pause rollups: every interval attributed, and a node that
    // recorded intervals names its worst cause.
    EXPECT_EQ(n.pause_unattributed, 0u) << n.name;
    EXPECT_GT(n.pause_intervals, 0u) << n.name;
    EXPECT_NE(n.pause_worst_cause, "none") << n.name;
  }
  EXPECT_EQ(names.size(), p.nodes);  // distinct node names
  EXPECT_EQ(committed, r.committed);
  EXPECT_EQ(r.pause_unattributed, 0u);  // fleet rollup of the node gates

  const std::string json = cluster::soak_report_json(r);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"pause_worst_cause\""), std::string::npos);
}

// The default fleet (4 nodes x 8 waves) converges, and every node's
// availability window covers about the same simulated time: a fully idle
// node must not hold the stepper while another node runs ahead.
TEST(ClusterObs, DefaultFleetConvergesWithEvenSpans) {
  cluster::ClusterSoak soak{cluster::ClusterSoakParams{}};
  ASSERT_TRUE(soak.run());

  const cluster::SoakReport r = soak.report();
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.nodes.size(), 4u);
  const double n0 = static_cast<double>(r.nodes[0].span_cycles);
  for (const auto& n : r.nodes)
    EXPECT_NEAR(static_cast<double>(n.span_cycles), n0, 0.05 * n0) << n.name;
}

}  // namespace
}  // namespace mercury::testing
