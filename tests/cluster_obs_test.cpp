// The cluster observability plane end-to-end, through the public
// ClusterSoak surface: a switch wave renders as one causally-linked trace
// across nodes, the time-series document is byte-identical for identical
// params, the engine profiler attributes wall time to engine work classes,
// and the fleet verdict carries per-node sections. Also here: the flight
// ring agrees with the pause ledger and with its own Chrome export on every
// interval of a switch round trip, a rolled-back switch and a
// checkpoint-restart arc.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/depend.hpp"
#include "cluster/soak.hpp"
#include "core/fault_inject.hpp"
#include "core/mercury.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "tests/chrome_events.hpp"
#include "tests/injector_guard.hpp"
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

/// A ring large enough to hold every event of one scenario, emptied on
/// entry; the default capacity comes back on exit.
struct FullRings {
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;
  FullRings() { obs::flight_recorder().set_capacity(kCapacity); }
  ~FullRings() {
    obs::flight_recorder().set_capacity(
        obs::FlightRecorder::kDefaultCapacityPerCpu);
  }
};

TEST(ClusterObs, SwitchWaveFormsOneCausalTraceAcrossNodes) {
  FullRings rings;
  cluster::ClusterSoak soak(small_params());
  ASSERT_TRUE(soak.run());
  ASSERT_EQ(obs::flight_recorder().dropped(), 0u);

  const std::string json = obs::chrome_trace_json(obs::flight_recorder());
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  const std::vector<ChromeEvent> evs = chrome_events(json);
  // Each wave exports a root "cluster.wave" span carrying the wave's trace
  // id; spans are ordered by begin, so the last one is the newest wave.
  const ChromeEvent* wave = nullptr;
  for (const ChromeEvent& e : evs)
    if (e.name == "cluster.wave") wave = &e;
  ASSERT_NE(wave, nullptr);
  const std::uint64_t trace = wave->trace;
  ASSERT_NE(trace, 0u);

  // The per-node fabric message spans must hang off the wave span and be
  // attributed to distinct cluster nodes (Chrome pids).
  std::map<std::uint64_t, std::uint64_t> msg_pid;  // span id -> pid
  std::set<std::uint64_t> msg_pids;
  for (const ChromeEvent& e : evs)
    if (e.name == "fabric.msg.switch" && e.trace == trace) {
      EXPECT_EQ(e.parent, wave->span);
      msg_pid[e.span] = e.pid;
      msg_pids.insert(e.pid);
    }
  EXPECT_GE(msg_pids.size(), 2u)
      << "one wave should span >= 2 distinct nodes";
  EXPECT_EQ(msg_pids.count(0), 0u) << "a message span left unattributed";

  // The engine's commit span resolves asynchronously (submit -> interrupt
  // -> commit), yet must still link beneath the wave's message span via
  // the captured SpanContext, on the node the message went to.
  std::size_t commits_linked = 0;
  for (const ChromeEvent& e : evs) {
    const bool is_commit =
        e.name == "switch.attach" || e.name == "switch.detach";
    const auto msg = msg_pid.find(e.parent);
    if (!is_commit || e.trace != trace || msg == msg_pid.end()) continue;
    EXPECT_EQ(e.pid, msg->second) << "commit span on another node";
    ++commits_linked;
  }
  EXPECT_GT(commits_linked, 0u)
      << "no commit span chained to a fabric.msg.switch span of trace "
      << trace;
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

/// Per pause cause, the flight ring's intervals must add up to the ledger's.
void expect_ring_matches_ledger(const obs::PauseLedger& ledger) {
  // Pair the flight ring's begin and end records per CPU, innermost first.
  std::map<std::uint32_t, std::vector<obs::FlightEvent>> open;
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
}

/// Every flight event but a begin record must appear exactly once in the
/// Chrome export, under its own seq: each interval's end record as the span
/// with the same name, CPU, begin and end (an instant when it took no
/// time), every point event as an instant.
void expect_export_matches_ring() {
  std::map<std::uint64_t, ChromeEvent> by_seq;
  for (ChromeEvent& e :
       chrome_events(obs::chrome_trace_json(obs::flight_recorder()))) {
    const std::uint64_t seq = e.seq;
    EXPECT_TRUE(by_seq.emplace(seq, std::move(e)).second)
        << "seq " << seq << " exported twice";
  }
  std::size_t expected = 0;
  for (const obs::FlightEvent& ev : obs::flight_recorder().events()) {
    if (ev.type == obs::FlightType::kPhaseBegin) continue;
    ++expected;
    const auto it = by_seq.find(ev.seq);
    ASSERT_NE(it, by_seq.end()) << ev.name << " (seq " << ev.seq
                                << ") missing from the export";
    const ChromeEvent& e = it->second;
    EXPECT_EQ(e.name, ev.name);
    EXPECT_EQ(e.tid, ev.cpu) << ev.name;
    const bool span = ev.type == obs::FlightType::kPhaseEnd && ev.arg1 != 0;
    EXPECT_EQ(e.ph, span ? "X" : "i") << ev.name;
    const hw::Cycles begin =
        ev.type == obs::FlightType::kPhaseEnd ? ev.at - ev.arg1 : ev.at;
    // ts and dur are printed to the nanosecond (three cycles).
    EXPECT_NEAR(e.ts, hw::cycles_to_us(begin), 6e-4) << ev.name;
    EXPECT_NEAR(e.ts + e.dur, hw::cycles_to_us(ev.at), 1.1e-3) << ev.name;
  }
  EXPECT_EQ(by_seq.size(), expected) << "Chrome events with no flight record";
}

/// The ring, its Chrome export and the ledger agree on every interval.
void expect_recorders_agree(const obs::PauseLedger& ledger,
                            const std::string& scenario) {
  SCOPED_TRACE(scenario);
  ASSERT_EQ(obs::flight_recorder().dropped(), 0u);
  expect_ring_matches_ledger(ledger);
  expect_export_matches_ring();
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
    InjectorGuard guard;
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
    ASSERT_TRUE(m.kernel().run_until([&] { return m.engine().idle(); },
                                     300 * hw::kCyclesPerMillisecond));
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
    // Sampled on node 0's clock, which never runs backward: no series has
    // a timestamp that decreases.
    const obs::TimeSeriesSampler& sampler = soak.sampler();
    for (std::size_t i = 0; i < sampler.series_count(); ++i) {
      const auto points = sampler.points(i);
      for (std::size_t j = 1; j < points.size(); ++j)
        EXPECT_GE(points[j].t, points[j - 1].t) << "series " << i;
    }
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
  EXPECT_EQ(r.gate_failures(), std::vector<std::string>{});
  ASSERT_EQ(r.nodes.size(), p.nodes);
  std::uint64_t committed = 0;
  std::set<std::string> names;
  for (const auto& n : r.nodes) {
    EXPECT_FALSE(n.name.empty());
    names.insert(n.name);
    EXPECT_EQ(n.submitted, p.waves);
    EXPECT_GT(n.span_cycles, 0u);
    committed += n.committed;
    // Per-node pause rollups: a node that recorded intervals names its
    // worst cause.
    EXPECT_GT(n.pause_intervals, 0u) << n.name;
    EXPECT_NE(n.pause_worst_cause, "none") << n.name;
  }
  EXPECT_EQ(names.size(), p.nodes);  // distinct node names
  EXPECT_EQ(committed, r.committed);

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
  EXPECT_EQ(r.gate_failures(), std::vector<std::string>{});
  ASSERT_EQ(r.nodes.size(), 4u);
  const double n0 = static_cast<double>(r.nodes[0].span_cycles);
  for (const auto& n : r.nodes)
    EXPECT_NEAR(static_cast<double>(n.span_cycles), n0, 0.05 * n0) << n.name;
}

}  // namespace
}  // namespace mercury::testing
