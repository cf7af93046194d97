#include "core/switch_supervisor.hpp"

#include <algorithm>
#include <utility>

#include "core/fault_inject.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mercury::core {

const char* supervisor_health_name(SupervisorHealth h) {
  switch (h) {
    case SupervisorHealth::kHealthy: return "healthy";
    case SupervisorHealth::kDegraded: return "degraded";
    case SupervisorHealth::kQuarantined: return "quarantined";
  }
  return "?";
}

const char* request_state_name(RequestState s) {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kInFlight: return "in-flight";
    case RequestState::kBackoff: return "backoff";
    case RequestState::kCommitted: return "committed";
    case RequestState::kFailedDeadline: return "failed-deadline";
    case RequestState::kFailedAttempts: return "failed-attempts";
    case RequestState::kFailedQuarantined: return "failed-quarantined";
    case RequestState::kCancelled: return "cancelled";
  }
  return "?";
}

SwitchSupervisor::SwitchSupervisor(SwitchEngine& engine,
                                   SupervisorConfig config)
    : engine_(engine),
      kernel_(engine.kernel()),
      config_(config),
      rng_(config.seed),
      self_(std::make_shared<SwitchSupervisor*>(this)) {
  if (config_.max_attempts == 0) config_.max_attempts = 1;
  engine_.set_completion_hook(
      [this](ExecMode target, SwitchOutcome outcome) {
        on_engine_resolve(target, outcome);
      });
  register_obs_instruments();
}

SwitchSupervisor::~SwitchSupervisor() {
  engine_.set_completion_hook(nullptr);
  // self_ dies with us: any armed retry/deadline/probe timer still in the
  // kernel queue degrades to a no-op.
}

void SwitchSupervisor::register_obs_instruments() {
#if MERCURY_OBS_ENABLED
  static std::uint64_t next_supervisor_id = 0;
  obs_label_ = "supervisor=" + std::to_string(next_supervisor_id++);
  const auto expose = [this](const char* name, auto getter) {
    obs_callbacks_.add(name, obs_label_, [this, getter] {
      return static_cast<double>(getter(stats_));
    });
  };
  expose("supervisor.submitted",
         [](const SupervisorStats& s) { return s.submitted; });
  expose("supervisor.attempts",
         [](const SupervisorStats& s) { return s.attempts; });
  expose("supervisor.retries",
         [](const SupervisorStats& s) { return s.retries; });
  expose("supervisor.backoffs",
         [](const SupervisorStats& s) { return s.backoffs; });
  expose("supervisor.committed",
         [](const SupervisorStats& s) { return s.committed; });
  expose("supervisor.failed_deadline",
         [](const SupervisorStats& s) { return s.failed_deadline; });
  expose("supervisor.failed_attempts",
         [](const SupervisorStats& s) { return s.failed_attempts; });
  expose("supervisor.failed_quarantined",
         [](const SupervisorStats& s) { return s.failed_quarantined; });
  expose("supervisor.quarantines",
         [](const SupervisorStats& s) { return s.quarantines; });
  expose("supervisor.recoveries",
         [](const SupervisorStats& s) { return s.recoveries; });
  expose("supervisor.probes",
         [](const SupervisorStats& s) { return s.probes; });
  obs_callbacks_.add("supervisor.health", obs_label_, [this] {
    return static_cast<double>(health_);
  });
  obs_callbacks_.add("supervisor.consecutive_failures", obs_label_, [this] {
    return static_cast<double>(consecutive_failures_);
  });
#endif
}

hw::Cycles SwitchSupervisor::now() const {
  return engine_.kernel().machine().cpu(0).now();
}

SupervisedRequest* SwitchSupervisor::find_mutable(std::uint64_t id) {
  if (id == 0 || id > requests_.size()) return nullptr;
  return &requests_[id - 1];
}

const SupervisedRequest* SwitchSupervisor::find(std::uint64_t id) const {
  if (id == 0 || id > requests_.size()) return nullptr;
  return &requests_[id - 1];
}

hw::Cycles SwitchSupervisor::backoff_delay(const SupervisorConfig& cfg,
                                           std::uint32_t attempt,
                                           util::Rng& rng) {
  double ms = cfg.backoff_base_ms;
  for (std::uint32_t i = 1; i < attempt; ++i) {
    ms *= cfg.backoff_factor;
    if (ms >= cfg.backoff_cap_ms) break;
  }
  ms = std::min(ms, cfg.backoff_cap_ms);
  // Exactly one draw per delay: the schedule is a pure function of the
  // seed and the attempt sequence, so MERCURY_TEST_SEED replays it.
  const double jitter = 1.0 + cfg.backoff_jitter * (2.0 * rng.uniform() - 1.0);
  return hw::us_to_cycles(ms * 1000.0 * jitter);
}

std::uint64_t SwitchSupervisor::submit(ExecMode target, RequestOptions opts,
                                       RequestCallback cb) {
  const std::uint64_t id =
      enqueue(target, opts, std::move(cb), /*probe=*/false,
              /*internal=*/false);
  pump();
  return id;
}

std::uint64_t SwitchSupervisor::enqueue(ExecMode target,
                                        const RequestOptions& opts,
                                        RequestCallback cb, bool probe,
                                        bool internal) {
  SupervisedRequest req;
  req.id = requests_.size() + 1;
  req.target = target;
  req.priority = probe ? 255 : opts.priority;
  req.probe = probe;
  req.internal = internal;
  req.max_attempts =
      probe ? 1 : (opts.max_attempts ? opts.max_attempts : config_.max_attempts);
  req.submitted_at = now();
  req.ctx = obs::current_span_context();
  const hw::Cycles rel =
      opts.deadline != 0 ? opts.deadline : config_.default_deadline;
  req.deadline_at = rel != 0 ? req.submitted_at + rel : 0;
  requests_.push_back(req);
  callbacks_.push_back(std::move(cb));
  ++live_;
  ++stats_.submitted;
  MERC_COUNT("switch.supervisor.submitted");
  SupervisedRequest& stored = requests_.back();
  // Quarantine fast-fails virtual targets: the machine is staying native
  // (the paper's fast path is the one mode that always works) until a
  // probe recovers. Native-target requests pass.
  if (health_ == SupervisorHealth::kQuarantined &&
      target != ExecMode::kNative && !probe) {
    resolve(stored, RequestState::kFailedQuarantined);
    return stored.id;
  }
  queue_.push_back(stored.id);
  arm_deadline(stored);
  return stored.id;
}

void SwitchSupervisor::pump() {
  if (pumping_) return;
  pumping_ = true;
  while (active_ == 0 && engine_.idle() && !queue_.empty()) {
    // Lowest priority value wins; ties go to the oldest id (FIFO).
    auto best = queue_.begin();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      const SupervisedRequest* a = find(*it);
      const SupervisedRequest* b = find(*best);
      if (a->priority < b->priority ||
          (a->priority == b->priority && a->id < b->id))
        best = it;
    }
    const std::uint64_t id = *best;
    queue_.erase(best);
    start_attempt(*find_mutable(id));
  }
  pumping_ = false;
}

void SwitchSupervisor::start_attempt(SupervisedRequest& req) {
  if (req.deadline_at != 0 && now() >= req.deadline_at) {
    resolve(req, RequestState::kFailedDeadline);
    return;
  }
  if (engine_.mode() == req.target) {
    // Nothing to do: resolve without consuming an attempt or touching the
    // engine (keeps the no-op path free and cycle-exact).
    resolve(req, RequestState::kCommitted);
    return;
  }
  ++req.attempts;
  ++stats_.attempts;
  MERC_COUNT("switch.supervisor.attempts");
  if (req.attempts > 1) {
    ++stats_.retries;
    MERC_COUNT("switch.supervisor.retries");
  }
  req.state = RequestState::kInFlight;
  active_ = req.id;
  MERC_FLIGHT(kernel_.machine().cpu(0), kSupervisorAttempt,
              "supervisor.attempt", req.id, req.attempts,
              static_cast<std::uint64_t>(req.target));
  // Hand the submit-time causal context to the engine: the commit happens
  // later, from interrupt context, where the submitter's span is long gone.
  engine_.set_request_context(req.ctx);
  engine_.request(req.target);
}

void SwitchSupervisor::on_engine_resolve(ExecMode target,
                                         SwitchOutcome outcome) {
  (void)target;
  if (active_ == 0) {
    // A request the supervisor did not originate resolved; the engine is
    // free again — dispatch any queued work.
    pump();
    return;
  }
  SupervisedRequest* req = find_mutable(active_);
  MERC_CHECK_MSG(req != nullptr && req->state == RequestState::kInFlight,
                 "engine resolved with no in-flight supervised request");
  const bool success =
      (outcome == SwitchOutcome::kCommitted ||
       outcome == SwitchOutcome::kNoOp) &&
      engine_.mode() == req->target;
  active_ = 0;
  if (success) {
    if (req->target != ExecMode::kNative)
      note_attach_result(true, req->target);
    resolve(*req, RequestState::kCommitted);
    return;
  }
  on_attempt_failed(*req);
}

void SwitchSupervisor::on_attempt_failed(SupervisedRequest& req) {
  if (req.target != ExecMode::kNative) note_attach_result(false, req.target);
  // note_attach_result may have entered quarantine, which resolves every
  // live virtual-target request — this one included.
  if (request_state_terminal(req.state)) {
    pump();
    return;
  }
  if (req.deadline_at != 0 && now() >= req.deadline_at) {
    resolve(req, RequestState::kFailedDeadline);
    return;
  }
  if (req.attempts >= req.max_attempts) {
    resolve(req, RequestState::kFailedAttempts);
    return;
  }
  arm_retry(req);
  pump();  // the engine is free for other queued requests meanwhile
}

void SwitchSupervisor::arm_retry(SupervisedRequest& req) {
  const hw::Cycles delay = backoff_delay(config_, req.attempts, rng_);
  // A retry that could only begin past the deadline is a deadline failure
  // now — no point sleeping into certain failure.
  if (req.deadline_at != 0 && now() + delay >= req.deadline_at) {
    resolve(req, RequestState::kFailedDeadline);
    return;
  }
  req.state = RequestState::kBackoff;
  ++req.backoffs;
  ++stats_.backoffs;
  req.total_backoff_cycles += delay;
  stats_.total_backoff_cycles += delay;
  MERC_COUNT("switch.supervisor.backoffs");
  // The backoff window holds the requested transition (not the machine) on
  // CPU 0's clock: the guest keeps running, but the caller's switch is
  // unavailable for `delay` — the ledger's only non-stop-the-world cause.
  obs::record_interval(obs::IntervalKind::kSupervisorBackoff, 0, now(),
                       now() + delay, req.id, req.attempts);
  std::weak_ptr<SwitchSupervisor*> weak = self_;
  kernel_.add_timer(
      now() + delay, [weak, id = req.id, attempt = req.attempts] {
        const auto locked = weak.lock();
        if (!locked) return;
        SwitchSupervisor& sup = **locked;
        SupervisedRequest* r = sup.find_mutable(id);
        // Staleness guards: the request may have been cancelled, deadline-
        // failed, or quarantine-failed while we slept.
        if (r == nullptr || r->state != RequestState::kBackoff ||
            r->attempts != attempt)
          return;
        r->state = RequestState::kQueued;
        sup.queue_.push_back(id);
        sup.pump();
      });
}

void SwitchSupervisor::arm_deadline(SupervisedRequest& req) {
  if (req.deadline_at == 0) return;
  std::weak_ptr<SwitchSupervisor*> weak = self_;
  kernel_.add_timer(req.deadline_at, [weak, id = req.id] {
    const auto locked = weak.lock();
    if (!locked) return;
    SwitchSupervisor& sup = **locked;
    SupervisedRequest* r = sup.find_mutable(id);
    if (r == nullptr || request_state_terminal(r->state)) return;
    if (r->state == RequestState::kInFlight && sup.active_ == id) {
      // Revoke the engine request too: a switch the caller was told missed
      // its deadline must not commit later behind their back.
      sup.engine_.cancel();
      sup.active_ = 0;
    }
    sup.resolve(*r, RequestState::kFailedDeadline);
  });
}

void SwitchSupervisor::resolve(SupervisedRequest& req, RequestState terminal) {
  MERC_CHECK(!request_state_terminal(req.state));
  req.state = terminal;
  req.resolved_at = now();
  --live_;
  if (active_ == req.id) active_ = 0;
  queue_.erase(std::remove(queue_.begin(), queue_.end(), req.id),
               queue_.end());
  switch (terminal) {
    case RequestState::kCommitted:
      ++stats_.committed;
      MERC_COUNT("switch.supervisor.committed");
      break;
    case RequestState::kFailedDeadline:
      ++stats_.failed_deadline;
      MERC_COUNT("switch.supervisor.failed_deadline");
      break;
    case RequestState::kFailedAttempts:
      ++stats_.failed_attempts;
      MERC_COUNT("switch.supervisor.failed_attempts");
      break;
    case RequestState::kFailedQuarantined:
      ++stats_.failed_quarantined;
      MERC_COUNT("switch.supervisor.failed_quarantined");
      break;
    case RequestState::kCancelled:
      ++stats_.cancelled;
      MERC_COUNT("switch.supervisor.cancelled");
      break;
    default:
      break;
  }
  MERC_FLIGHT(kernel_.machine().cpu(0), kSupervisorResolve,
              request_state_name(terminal), req.id,
              static_cast<std::uint64_t>(terminal), req.attempts);
  if (req.probe) {
    if (terminal == RequestState::kCommitted) {
      // The probe attached: virtualization works again. Recover, then
      // return to the native resting state the quarantine promised.
      ++stats_.recoveries;
      MERC_COUNT("switch.supervisor.recoveries");
      consecutive_failures_ = 0;
      transition_health(SupervisorHealth::kHealthy);
      enqueue(ExecMode::kNative, RequestOptions{.priority = 0}, nullptr,
              /*probe=*/false, /*internal=*/true);
    } else if (health_ == SupervisorHealth::kQuarantined) {
      arm_probe_timer();
    }
  }
  // Each request resolves exactly once, so move its callback out before
  // invoking it: the callback may submit a follow-up request, and the
  // re-entrant enqueue() grows callbacks_ — invoking through a reference
  // into the container would be a use-after-free of the std::function's
  // captures if the container moved its elements.
  RequestCallback cb = std::move(callbacks_[req.id - 1]);
  if (cb) cb(req);
  pump();
}

void SwitchSupervisor::note_attach_result(bool success, ExecMode target) {
  if (success) {
    consecutive_failures_ = 0;
    if (health_ == SupervisorHealth::kDegraded)
      transition_health(SupervisorHealth::kHealthy);
    return;
  }
  probe_target_ = target;
  ++consecutive_failures_;
  if (health_ == SupervisorHealth::kQuarantined) return;
  if (consecutive_failures_ >= config_.quarantine_after) {
    enter_quarantine();
  } else if (consecutive_failures_ >= config_.degraded_after &&
             health_ == SupervisorHealth::kHealthy) {
    transition_health(SupervisorHealth::kDegraded);
  }
}

void SwitchSupervisor::transition_health(SupervisorHealth to) {
  if (to == health_) return;
  MERC_FLIGHT(kernel_.machine().cpu(0), kHealthTransition, "supervisor.health",
              static_cast<std::uint64_t>(health_),
              static_cast<std::uint64_t>(to), consecutive_failures_);
  MERC_COUNT("switch.supervisor.health_transitions");
  util::log_warn("supervisor", "health ", supervisor_health_name(health_),
                 " -> ", supervisor_health_name(to), " after ",
                 consecutive_failures_, " consecutive failed attaches");
  health_ = to;
}

void SwitchSupervisor::enter_quarantine() {
  ++stats_.quarantines;
  MERC_COUNT("switch.supervisor.quarantines");
  transition_health(SupervisorHealth::kQuarantined);
  dump_quarantine_postmortem();
  // Fail every live virtual-target request via its callback: the owner
  // learns virtualization is out, rather than waiting on retries that the
  // health machine has concluded cannot succeed. Index loop over a size
  // snapshot: a callback may submit a follow-up, and the re-entrant
  // push_back invalidates deque iterators (references stay stable).
  // Requests enqueued during the sweep are safe to skip — health_ is
  // already kQuarantined, so enqueue() fast-fails virtual targets itself.
  const std::size_t swept = requests_.size();
  for (std::size_t i = 0; i < swept; ++i) {
    SupervisedRequest& r = requests_[i];
    if (request_state_terminal(r.state)) continue;
    if (r.target == ExecMode::kNative) continue;
    if (r.id == active_) {
      engine_.cancel();
      active_ = 0;
    }
    resolve(r, RequestState::kFailedQuarantined);
  }
  // Quarantined means *native*: if a partial attach left the VMM attached,
  // drive it back out (supervised, highest priority).
  if (engine_.mode() != ExecMode::kNative && active_ == 0) {
    bool native_queued = false;
    for (const SupervisedRequest& r : requests_)
      if (!request_state_terminal(r.state) &&
          r.target == ExecMode::kNative)
        native_queued = true;
    if (!native_queued)
      enqueue(ExecMode::kNative, RequestOptions{.priority = 0}, nullptr,
              /*probe=*/false, /*internal=*/true);
  }
  arm_probe_timer();
}

void SwitchSupervisor::dump_quarantine_postmortem() {
  obs::PostmortemContext ctx;
  ctx.reason = "quarantine";
  ctx.detail = std::string("supervisor quarantined virtualization after ") +
               std::to_string(consecutive_failures_) +
               " consecutive failed attaches; staying native";
  ctx.switch_from = exec_mode_name(engine_.mode());
  ctx.switch_target = exec_mode_name(ExecMode::kNative);
  hw::Machine& m = kernel_.machine();
  for (std::size_t i = 0; i < m.num_cpus(); ++i)
    ctx.cpu_clocks.emplace_back(m.cpu(i).id(), m.cpu(i).now());
  ctx.extra.emplace_back("supervisor.submitted", stats_.submitted);
  ctx.extra.emplace_back("supervisor.attempts", stats_.attempts);
  ctx.extra.emplace_back("supervisor.retries", stats_.retries);
  ctx.extra.emplace_back("supervisor.backoffs", stats_.backoffs);
  ctx.extra.emplace_back("supervisor.quarantines", stats_.quarantines);
  ctx.extra.emplace_back("supervisor.consecutive_failures",
                         consecutive_failures_);
  ctx.extra.emplace_back("switch.rollbacks", engine_.stats().rollbacks);
  ctx.extra.emplace_back("switch.cancels", engine_.stats().cancels);
  ctx.extra.emplace_back("fault.injected_total", fault_injector().injected());
  obs::write_postmortem(ctx);
}

void SwitchSupervisor::arm_probe_timer() {
  if (!config_.probe_enabled || config_.probe_interval_ms <= 0.0) return;
  if (probe_timer_armed_) return;
  probe_timer_armed_ = true;
  std::weak_ptr<SwitchSupervisor*> weak = self_;
  kernel_.add_timer(
      now() + hw::us_to_cycles(config_.probe_interval_ms * 1000.0),
      [weak] {
        const auto locked = weak.lock();
        if (!locked) return;
        SwitchSupervisor& sup = **locked;
        sup.probe_timer_armed_ = false;
        sup.fire_probe();
      });
}

void SwitchSupervisor::fire_probe() {
  if (health_ != SupervisorHealth::kQuarantined) return;
  if (active_ != 0 || !engine_.idle() || !queue_.empty()) {
    // Lowest priority: never contend with real requests; try again later.
    arm_probe_timer();
    return;
  }
  ++stats_.probes;
  MERC_COUNT("switch.supervisor.probes");
  // Retest the mode whose failures drove the quarantine: a successful
  // partial-virtual attach says nothing about a broken full-virtual one.
  enqueue(probe_target_, RequestOptions{}, nullptr,
          /*probe=*/true, /*internal=*/true);
  pump();
}

bool SwitchSupervisor::cancel(std::uint64_t id) {
  SupervisedRequest* req = find_mutable(id);
  if (req == nullptr || request_state_terminal(req->state)) return false;
  if (req->state == RequestState::kInFlight && active_ == id) {
    engine_.cancel();
    active_ = 0;
  }
  resolve(*req, RequestState::kCancelled);
  return true;
}

bool SwitchSupervisor::switch_now(ExecMode target, hw::Cycles budget,
                                  RequestOptions opts) {
  bool done = false;
  RequestState terminal = RequestState::kCancelled;
  const std::uint64_t id =
      submit(target, opts, [&done, &terminal](const SupervisedRequest& r) {
        done = true;
        terminal = r.state;
      });
  if (!done && !kernel_.run_until([&done] { return done; }, budget)) {
    cancel(id);
    return false;
  }
  return terminal == RequestState::kCommitted;
}

}  // namespace mercury::core
