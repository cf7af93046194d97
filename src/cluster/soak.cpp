#include "cluster/soak.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/fault_inject.hpp"
#include "core/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace mercury::cluster {

std::string soak_report_json(const SoakReport& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"mercury.soak.v1\",\n";
  os << "  \"seed\": " << r.seed << ",\n";
  os << "  \"cpus\": " << r.cpus << ",\n";
  os << "  \"planned_cycles\": " << r.planned_cycles << ",\n";
  os << "  \"storm\": {\"rate\": " << r.storm_rate
     << ", \"burst\": " << r.storm_burst << ", \"decay\": " << r.storm_decay
     << ", \"fires\": " << r.storm_fires
     << ", \"windows\": " << r.storm_windows << "},\n";
  os << "  \"requests\": {\"submitted\": " << r.submitted
     << ", \"committed\": " << r.committed
     << ", \"failed_deadline\": " << r.failed_deadline
     << ", \"failed_attempts\": " << r.failed_attempts
     << ", \"failed_quarantined\": " << r.failed_quarantined
     << ", \"cancelled\": " << r.cancelled
     << ", \"unresolved\": " << r.unresolved << "},\n";
  os << "  \"supervisor\": {\"attempts\": " << r.attempts
     << ", \"retries\": " << r.retries << ", \"backoffs\": " << r.backoffs
     << ", \"quarantines\": " << r.quarantines
     << ", \"recoveries\": " << r.recoveries << ", \"probes\": " << r.probes
     << ", \"final_health\": \"" << r.final_health << "\"},\n";
  os << "  \"engine\": {\"rollbacks\": " << r.rollbacks
     << ", \"cancels\": " << r.engine_cancels << "},\n";
  os << "  \"invariants\": {\"checks\": " << r.invariant_checks
     << ", \"violations\": " << r.invariant_violations << "},\n";
  os << "  \"availability\": {\"fraction\": " << r.availability
     << ", \"interruptions\": " << r.interruptions
     << ", \"downtime_cycles\": " << r.downtime_cycles
     << ", \"span_cycles\": " << r.span_cycles << "},\n";
  os << "  \"workload\": {\"ops\": " << r.workload_ops
     << ", \"bytes\": " << r.workload_bytes
     << ", \"corruptions\": " << r.workload_corruptions << "},\n";
  os << "  \"pause\": {\"intervals\": " << r.pause_intervals
     << ", \"unattributed\": " << r.pause_unattributed
     << ", \"worst_cycles\": " << r.pause_worst_cycles
     << ", \"worst_cause\": \"" << r.pause_worst_cause << "\"},\n";
  os << "  \"converged\": " << (r.converged ? "true" : "false") << ",\n";
  os << "  \"final_mode\": \"" << r.final_mode << "\",\n";
  if (!r.nodes.empty()) {
    os << "  \"nodes\": [";
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      const NodeSoakStats& n = r.nodes[i];
      os << (i ? ",\n    {" : "\n    {") << "\"name\": \"" << n.name
         << "\", \"submitted\": " << n.submitted
         << ", \"committed\": " << n.committed << ", \"failed\": " << n.failed
         << ", \"retries\": " << n.retries
         << ", \"quarantines\": " << n.quarantines
         << ", \"availability\": " << n.availability
         << ", \"interruptions\": " << n.interruptions
         << ", \"downtime_cycles\": " << n.downtime_cycles
         << ", \"span_cycles\": " << n.span_cycles
         << ", \"pause_intervals\": " << n.pause_intervals
         << ", \"pause_unattributed\": " << n.pause_unattributed
         << ", \"pause_worst_cycles\": " << n.pause_worst_cycles
         << ", \"pause_worst_cause\": \"" << n.pause_worst_cause
         << "\", \"final_health\": \"" << n.final_health
         << "\", \"final_mode\": \"" << n.final_mode << "\"}";
    }
    os << "\n  ],\n";
  }
  os << "  \"metrics\": " << obs::to_json(obs::snapshot()) << "\n";
  os << "}\n";
  return os.str();
}

bool write_soak_report(const SoakReport& r, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << soak_report_json(r);
  return static_cast<bool>(out);
}

namespace {

/// Stepper budget per wave.
constexpr hw::Cycles kWaveBudget = 400 * hw::kCyclesPerMillisecond;

// A committed switch is a service interruption as long as its transfer
// window, booked as [resolved_at - window, resolved_at]. A request that
// found the machine already in its target made no attempt: the engine's
// last window belongs to an earlier switch, so it books nothing.
void book_commit(AvailabilityTracker& tracker, const core::SwitchStats& es,
                 const core::SupervisedRequest& r) {
  if (r.attempts == 0) return;
  const bool detach = r.target == core::ExecMode::kNative;
  const hw::Cycles window =
      detach ? es.last_detach_cycles : es.last_attach_cycles;
  if (window == 0 || r.resolved_at <= window) return;
  tracker.service_down(r.resolved_at - window,
                       detach ? "switch.detach" : "switch.attach");
  tracker.service_up(r.resolved_at);
}

/// Add one supervisor's request outcomes, and its engine's rollbacks and
/// cancels, to `r`. The stranded-request gate covers caller-submitted
/// requests only: a supervisor-internal probe or quarantine detach
/// legitimately in flight at snapshot time is scheduled work, not a
/// stranded request.
void add_supervisor(SoakReport& r, core::SwitchSupervisor& sup) {
  const core::SupervisorStats& ss = sup.stats();
  r.submitted += ss.submitted;
  r.committed += ss.committed;
  r.failed_deadline += ss.failed_deadline;
  r.failed_attempts += ss.failed_attempts;
  r.failed_quarantined += ss.failed_quarantined;
  r.cancelled += ss.cancelled;
  r.attempts += ss.attempts;
  r.retries += ss.retries;
  r.backoffs += ss.backoffs;
  r.quarantines += ss.quarantines;
  r.recoveries += ss.recoveries;
  r.probes += ss.probes;
  r.rollbacks += sup.engine().stats().rollbacks;
  r.engine_cancels += sup.engine().stats().cancels;
  for (const core::SupervisedRequest& q : sup.requests())
    if (!q.internal && !core::request_state_terminal(q.state)) ++r.unresolved;
}

}  // namespace

SoakDriver::SoakDriver(core::SwitchSupervisor& supervisor, SoakParams p)
    : sup_(supervisor),
      kernel_(supervisor.engine().kernel()),
      params_(p),
      warm_rng_(p.warm_seed),
      self_(std::make_shared<SoakDriver*>(this)) {
  if (params_.cycles == 0) params_.cycles = 1;
}

hw::Cycles SoakDriver::now() const {
  return kernel_.machine().cpu(0).now();
}

void SoakDriver::start() {
  if (started_) return;
  started_ = true;
  arm_tick();
}

void SoakDriver::arm_tick() {
  std::weak_ptr<SoakDriver*> weak = self_;
  kernel_.add_timer(
      now() + hw::us_to_cycles(params_.request_interval_ms * 1000.0),
      [weak] {
        const auto locked = weak.lock();
        if (locked) (**locked).tick();
      });
}

void SoakDriver::tick() {
  if (done()) return;  // on_resolved finished the accounting
  if (!outstanding_ && submitted_ < params_.cycles) {
    // Alternate: whatever mode the machine settled in, ask for the other
    // one — a soak cycle is one supervised attach or detach end-to-end.
    const core::ExecMode target =
        sup_.engine().mode() == core::ExecMode::kNative
            ? params_.virt_mode
            : core::ExecMode::kNative;
    core::RequestOptions opts;
    opts.deadline = params_.deadline;
    opts.max_attempts = params_.max_attempts;
    // Flip warm re-attach per cycle so a soak interleaves warm and cold
    // attaches (and retaining and plain detaches) under the same storm.
    if (params_.warm_reattach_rate > 0.0)
      sup_.engine().set_warm_reattach(
          warm_rng_.chance(params_.warm_reattach_rate));
    ++submitted_;
    outstanding_ = true;
    std::weak_ptr<SoakDriver*> weak = self_;
    sup_.submit(target, opts, [weak](const core::SupervisedRequest& r) {
      const auto locked = weak.lock();
      if (locked) (**locked).on_resolved(r);
    });
  }
  if (!done()) arm_tick();
}

void SoakDriver::on_resolved(const core::SupervisedRequest& r) {
  outstanding_ = false;
  ++resolved_;
  if (r.state == core::RequestState::kCommitted) {
    ++committed_;
    book_commit(tracker_, sup_.engine().stats(), r);
  }
  if (params_.check_invariants) {
    ++invariant_checks_;
    const core::InvariantReport rep =
        core::check_machine_invariants(sup_.engine());
    if (!rep.ok()) ++invariant_violations_;
  }
  if (done() && !finished_) {
    finished_ = true;
    tracker_.finish(now());
  }
}

bool SoakDriver::run_to_completion(hw::Cycles budget) {
  start();
  return kernel_.run_until([this] { return done(); }, budget);
}

SoakReport SoakDriver::report(std::uint64_t seed) const {
  SoakReport r;
  r.seed = seed;
  r.cpus = kernel_.machine().num_cpus();
  r.planned_cycles = params_.cycles;

  // Quote the storm as armed, not the live state: fire_storm() decays the
  // per-site rates, and the artifact must record the regime the run was
  // seeded with. The rate is the max across sites (uniform storms put the
  // same rate everywhere).
  const core::FaultInjector& fi = core::fault_injector();
  const core::FaultStorm& storm = fi.storm_config();
  r.storm_rate = *std::max_element(std::begin(storm.rate),
                                   std::end(storm.rate));
  r.storm_burst = storm.burst_windows;
  r.storm_decay = storm.decay;
  r.storm_fires = fi.storm_fires();
  r.storm_windows = fi.storm_windows();

  add_supervisor(r, sup_);
  r.final_health = core::supervisor_health_name(sup_.health());
  r.invariant_checks = invariant_checks_;
  r.invariant_violations = invariant_violations_;

  r.availability = tracker_.availability();
  r.interruptions = tracker_.interruptions().size();
  r.downtime_cycles = tracker_.total_downtime();
  r.span_cycles = tracker_.observation_span();

  r.workload_ops = workload_ops_;
  r.workload_bytes = workload_bytes_;
  r.workload_corruptions = workload_corruptions_;

  // Single-machine soaks record into the ambient (usually process-global)
  // ledger; obs-off builds report zeros, which the gate accepts.
  const obs::PauseLedger& pl = obs::pause_ledger();
  r.pause_intervals = pl.intervals();
  r.pause_unattributed = pl.unattributed();
  const obs::PauseWorst& pw = pl.worst();
  r.pause_worst_cycles = pw.valid ? pw.span() : 0;
  r.pause_worst_cause = pw.valid ? obs::pause_cause_name(pw.cause) : "none";

  r.converged = done() && r.unresolved == 0 && !tracker_.is_down();
  r.final_mode = core::exec_mode_name(sup_.engine().mode());
  return r;
}

// ---------------------------------------------------------------------------
// ClusterSoak
// ---------------------------------------------------------------------------

ClusterSoak::ClusterSoak(ClusterSoakParams p)
    : params_(p),
      sampler_(p.sample_capacity),
      self_(std::make_shared<ClusterSoak*>(this)) {
  if (params_.nodes == 0) params_.nodes = 1;
  if (params_.waves == 0) params_.waves = 1;
  sample_interval_ = hw::us_to_cycles(params_.sample_interval_ms * 1000.0);
  if (sample_interval_ == 0) sample_interval_ = hw::kCyclesPerMillisecond;

  for (std::size_t i = 0; i < params_.nodes; ++i) {
    NodeConfig nc;
    nc.cpus = params_.cpus_per_node;
    Node& n = fabric_.add_node("n" + std::to_string(i), nc);
    if (i > 0) fabric_.connect(fabric_.node(0), n);

    auto rt = std::make_unique<NodeRt>();
    rt->node = &n;
    // Per-node jitter stream, derived from the run seed so two runs with
    // identical params draw identical backoff schedules on every node.
    core::SupervisorConfig sc = params_.supervisor;
    sc.seed = params_.seed * 0x9E3779B97F4A7C15ull + 0x1000ull * (i + 1);
    rt->supervisor =
        std::make_unique<core::SwitchSupervisor>(n.mercury().engine(), sc);
    nodes_.push_back(std::move(rt));
  }

  // Per-node time series. The readers view state owned by this run (never
  // the process-global registry, whose instruments accumulate across runs
  // in one process), so the sampled values are a pure function of params.
  for (const auto& rtp : nodes_) {
    NodeRt* rt = rtp.get();
    const std::string label = rt->node->obs_label();
    sampler_.add_series("switch.committed", label, [rt] {
      return static_cast<double>(rt->supervisor->stats().committed);
    });
    sampler_.add_series("switch.attempts", label, [rt] {
      return static_cast<double>(rt->supervisor->stats().attempts);
    });
    sampler_.add_series("switch.inflight", label, [rt] {
      return rt->supervisor->idle() ? 0.0 : 1.0;
    });
    sampler_.add_series("supervisor.health", label, [rt] {
      return static_cast<double>(rt->supervisor->health());
    });
    sampler_.add_series("exec.mode", label, [rt] {
      return static_cast<double>(rt->supervisor->engine().mode());
    });
    sampler_.add_series("pause.intervals", label, [rt] {
      return static_cast<double>(rt->node->pauses().intervals());
    });
    sampler_.add_series("pause.worst_cycles", label, [rt] {
      const obs::PauseWorst& w = rt->node->pauses().worst();
      return w.valid ? static_cast<double>(w.span()) : 0.0;
    });
  }
  sampler_.add_series("fleet.committed", "", [this] {
    double sum = 0.0;
    for (const auto& rt : nodes_)
      sum += static_cast<double>(rt->supervisor->stats().committed);
    return sum;
  });
  sampler_.add_series("fleet.inflight", "", [this] {
    double sum = 0.0;
    for (const auto& rt : nodes_)
      if (!rt->supervisor->idle()) sum += 1.0;
    return sum;
  });
  sampler_.add_series("fleet.quarantines", "", [this] {
    double sum = 0.0;
    for (const auto& rt : nodes_)
      sum += static_cast<double>(rt->supervisor->stats().quarantines);
    return sum;
  });
  sampler_.add_series("fleet.pause_worst_cycles", "", [this] {
    double worst = 0.0;
    for (const auto& rt : nodes_) {
      const obs::PauseWorst& w = rt->node->pauses().worst();
      if (w.valid) worst = std::max(worst, static_cast<double>(w.span()));
    }
    return worst;
  });
}

ClusterSoak::~ClusterSoak() = default;

void ClusterSoak::arm_sampler() {
  kernel::Kernel& k = nodes_[0]->node->active();
  std::weak_ptr<ClusterSoak*> weak = self_;
  k.add_timer(k.machine().cpu(0).now() + sample_interval_, [weak] {
    const auto locked = weak.lock();
    if (!locked) return;
    ClusterSoak& cs = **locked;
    if (cs.finished_) return;
    cs.sampler_.sample(cs.nodes_[0]->node->machine().cpu(0).now());
    cs.arm_sampler();
  });
}

void ClusterSoak::on_resolved(NodeRt& rt, const core::SupervisedRequest& r) {
  rt.outstanding = false;
  if (r.state == core::RequestState::kCommitted) {
    ++rt.committed;
    rt.node->metrics().counter("node.switch.committed").inc();
    book_commit(rt.tracker, rt.supervisor->engine().stats(), r);
  } else {
    ++rt.failed;
    rt.node->metrics().counter("node.switch.failed").inc();
  }
}

void ClusterSoak::run_wave() {
  // The wave is the root of one causal tree: allocate its identity up
  // front so every per-node message span (and, transitively, every commit
  // and crew-phase span on every node) links beneath it.
  obs::SpanContext wave_ctx;
#if MERCURY_OBS_ENABLED
  wave_ctx.trace_id = obs::next_span_id();
  wave_ctx.span_id = obs::next_span_id();
#endif
  const hw::Cycles wave_begin = fabric_.now();
  // Fleet-wide alternation: whatever mode node 0 settled in, the wave
  // drives every node toward the other one.
  const core::ExecMode target =
      nodes_[0]->supervisor->engine().mode() == core::ExecMode::kNative
          ? params_.virt_mode
          : core::ExecMode::kNative;

  for (auto& rtp : nodes_) {
    NodeRt* rt = rtp.get();
    ++rt->submitted;
    rt->node->metrics().counter("node.switch.submitted").inc();
    // Set before submit: a quarantined supervisor fast-fails virtual
    // targets synchronously, resolving inside this call.
    rt->outstanding = true;
#if MERCURY_OBS_ENABLED
    obs::TraceNodeScope node_scope(rt->node->trace_node());
    obs::SpanContextScope wave_scope(wave_ctx);
#endif
    const obs::Interval msg(rt->node->machine().cpu(0),
                            obs::IntervalKind::kFabricSwitchMsg);
    // submit can resolve synchronously (quarantine fast-fail) and a retry
    // can arm its backoff here — keep those pauses on this node's ledger.
    obs::PauseLedgerScope pause_scope(rt->node->pauses());
    rt->supervisor->submit(target, {},
                           [this, rt](const core::SupervisedRequest& r) {
                             on_resolved(*rt, r);
                           });
  }

  const bool ok = fabric_.co_step(
      [this] {
        for (const auto& rt : nodes_)
          if (rt->outstanding) return false;
        return true;
      },
      kWaveBudget);
  if (!ok) all_resolved_ok_ = false;
  ++waves_run_;
  obs::record_interval(obs::IntervalKind::kClusterWave, 0, wave_begin,
                       fabric_.now(), 0, 0, nullptr, &wave_ctx);
}

void ClusterSoak::dwell() {
  const hw::Cycles gap = hw::us_to_cycles(params_.wave_interval_ms * 1000.0);
  if (gap == 0) return;
  // No cross-node messages are in flight between waves, so the nodes are
  // causally independent here: each one runs on its own clock, under the
  // attribution its wave steps use (supervisor backoff timers fire
  // mid-dwell).
  for (auto& rt : nodes_) {
    if (rt->node->failed()) continue;
    const NodeScope scope(*rt->node);
    rt->node->active().run_for(gap);
  }
}

bool ClusterSoak::run() {
  arm_sampler();
  sampler_.sample(nodes_[0]->node->machine().cpu(0).now());
  for (std::uint64_t w = 0; w < params_.waves; ++w) {
    run_wave();
    dwell();
  }
  finished_ = true;
  // Close every node's availability window at its own clock.
  for (auto& rt : nodes_)
    rt->tracker.finish(rt->node->machine().cpu(0).now());
  // Final sample so the series end at the fleet's settled state.
  sampler_.sample(nodes_[0]->node->machine().cpu(0).now());
  bool unresolved = false;
  for (const auto& rt : nodes_)
    if (rt->outstanding) unresolved = true;
  return all_resolved_ok_ && !unresolved;
}

SoakReport ClusterSoak::report() const {
  SoakReport r;
  r.seed = params_.seed;
  r.cpus = params_.nodes * params_.cpus_per_node;
  r.planned_cycles = params_.waves;

  double avail_sum = 0.0;
  const char* worst_health = "healthy";
  for (const auto& rtp : nodes_) {
    const NodeRt& rt = *rtp;
    const core::SupervisorStats& ss = rt.supervisor->stats();
    NodeSoakStats ns;
    ns.name = rt.node->name();
    ns.submitted = rt.submitted;
    ns.committed = rt.committed;
    ns.failed = rt.failed;
    ns.retries = ss.retries;
    ns.quarantines = ss.quarantines;
    ns.availability = rt.tracker.availability();
    ns.interruptions = rt.tracker.interruptions().size();
    ns.downtime_cycles = rt.tracker.total_downtime();
    ns.span_cycles = rt.tracker.observation_span();
    const obs::PauseLedger& pl = rt.node->pauses();
    ns.pause_intervals = pl.intervals();
    ns.pause_unattributed = pl.unattributed();
    const obs::PauseWorst& pw = pl.worst();
    ns.pause_worst_cycles = pw.valid ? pw.span() : 0;
    ns.pause_worst_cause =
        pw.valid ? obs::pause_cause_name(pw.cause) : "none";
    ns.final_health = core::supervisor_health_name(rt.supervisor->health());
    ns.final_mode =
        core::exec_mode_name(rt.supervisor->engine().mode());
    avail_sum += ns.availability;

    add_supervisor(r, *rt.supervisor);
    r.interruptions += rt.tracker.interruptions().size();
    r.downtime_cycles += rt.tracker.total_downtime();
    r.span_cycles = std::max(r.span_cycles,
                             static_cast<std::uint64_t>(
                                 rt.tracker.observation_span()));
    if (rt.supervisor->health() != core::SupervisorHealth::kHealthy)
      worst_health = core::supervisor_health_name(rt.supervisor->health());
    r.pause_intervals += ns.pause_intervals;
    r.pause_unattributed += ns.pause_unattributed;
    if (ns.pause_worst_cycles > r.pause_worst_cycles) {
      r.pause_worst_cycles = ns.pause_worst_cycles;
      r.pause_worst_cause = ns.pause_worst_cause;
    }
    r.nodes.push_back(std::move(ns));
  }
  r.availability = nodes_.empty() ? 1.0 : avail_sum / nodes_.size();
  r.final_health = worst_health;
  r.final_mode =
      core::exec_mode_name(nodes_.front()->supervisor->engine().mode());
  r.converged = finished_ && all_resolved_ok_ && r.unresolved == 0;
  return r;
}

}  // namespace mercury::cluster
