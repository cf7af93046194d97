// The switch supervisor: a policy layer above SwitchEngine that owns switch
// *requests* end-to-end (dependability pillar — the paper's §5.1/§8 framing
// says a mode switch is what you reach for exactly when the machine is in
// trouble, so the switch path itself must survive trouble).
//
// The engine resolves each commit attempt exactly once (commit, no-op,
// validation abort, or rollback) through its completion hook; the
// supervisor turns those single attempts into supervised requests:
//
//   - every request gets a SupervisedRequest record: target mode, absolute
//     cycle deadline, attempt budget, priority;
//   - a failed attempt (rollback, validation abort) re-arms with seeded-
//     jitter exponential backoff on a kernel timer — the same mechanism as
//     the §5.1.1 defer-retry, one level up;
//   - a per-request deadline fails the request (and revokes the in-flight
//     engine request, so it cannot commit behind the caller's back);
//   - N consecutive failed *attaches* drive a health state machine
//     Healthy -> Degraded -> Quarantined. Quarantined means the machine
//     stays native — the paper's core promise is that native speed is
//     always available — virtual-target requests fail fast via their
//     callbacks, a postmortem bundle records why, and a periodic
//     low-priority probe switch attempts recovery.
//
// With no faults and default options the supervised path is cycle-identical
// to the bare engine: the happy path arms zero timers and charges nothing —
// supervision is host-side bookkeeping until something goes wrong.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/switch_engine.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace mercury::core {

enum class SupervisorHealth : std::uint8_t {
  kHealthy,
  kDegraded,     // failed attaches piling up; still retrying
  kQuarantined,  // virtualization declared broken: stay native, probe later
};

const char* supervisor_health_name(SupervisorHealth h);

enum class RequestState : std::uint8_t {
  // Live states.
  kQueued,    // waiting for the engine (or for a higher-priority request)
  kInFlight,  // an engine request is pending for this record
  kBackoff,   // last attempt failed; retry timer armed
  // Terminal states.
  kCommitted,          // the machine reached the requested mode
  kFailedDeadline,     // the absolute cycle deadline passed first
  kFailedAttempts,     // the attempt budget ran out
  kFailedQuarantined,  // health quarantine failed the request fast
  kCancelled,          // the submitter revoked it
};

const char* request_state_name(RequestState s);

inline bool request_state_terminal(RequestState s) {
  return s >= RequestState::kCommitted;
}

struct SupervisorConfig {
  /// Default attempt budget per request (>= 1).
  std::uint32_t max_attempts = 8;
  /// Backoff schedule: delay(attempt) = min(cap, base * factor^(attempt-1))
  /// scaled by a jitter factor uniform in [1-jitter, 1+jitter).
  double backoff_base_ms = 1.0;
  double backoff_factor = 2.0;
  double backoff_cap_ms = 64.0;
  double backoff_jitter = 0.25;
  /// Seed for the jitter stream (tests derive it from MERCURY_TEST_SEED).
  std::uint64_t seed = 0x5EEDBACC0FFULL;
  /// Consecutive failed attaches before Healthy -> Degraded.
  std::uint32_t degraded_after = 2;
  /// Consecutive failed attaches before -> Quarantined.
  std::uint32_t quarantine_after = 5;
  /// Quarantine recovery probe cadence (0 disables probing).
  double probe_interval_ms = 200.0;
};

struct RequestOptions {
  /// Deadline relative to submission time, in cycles (0 = none).
  hw::Cycles deadline = 0;
  /// Attempt budget override (0 = config default).
  std::uint32_t max_attempts = 0;
  /// Dispatch priority: lower runs first among queued requests.
  std::uint8_t priority = 1;
};

struct SupervisedRequest {
  std::uint64_t id = 0;
  ExecMode target = ExecMode::kNative;
  RequestState state = RequestState::kQueued;
  std::uint8_t priority = 1;
  bool probe = false;     // internal quarantine-recovery probe
  bool internal = false;  // supervisor-originated (probe, quarantine detach)
  std::uint32_t attempts = 0;  // commit attempts consumed so far
  std::uint32_t max_attempts = 1;
  std::uint32_t backoffs = 0;
  hw::Cycles submitted_at = 0;
  hw::Cycles deadline_at = 0;  // absolute CP cycles; 0 = none
  hw::Cycles resolved_at = 0;
  hw::Cycles total_backoff_cycles = 0;
  /// Causal context ambient at submit() time (a fabric-message span in a
  /// cluster wave); re-installed into the engine on every attempt so the
  /// commit spans link back to the submitter across the async hops.
  obs::SpanContext ctx{};
};

struct SupervisorStats {
  std::uint64_t submitted = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;   // attempts beyond each request's first
  std::uint64_t backoffs = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed_deadline = 0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t failed_quarantined = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t recoveries = 0;  // quarantine probes that attached
  std::uint64_t probes = 0;
  hw::Cycles total_backoff_cycles = 0;

  std::uint64_t resolved() const {
    return committed + failed_deadline + failed_attempts +
           failed_quarantined + cancelled;
  }
};

/// One supervisor per engine: the constructor takes the engine's completion
/// hook. Do not call SwitchEngine::request / switch_now directly while a
/// supervisor owns the engine — submit through the supervisor instead.
class SwitchSupervisor {
 public:
  /// Invoked exactly once per request, on the terminal transition. The
  /// callback may submit follow-up requests.
  using RequestCallback = std::function<void(const SupervisedRequest&)>;

  explicit SwitchSupervisor(SwitchEngine& engine, SupervisorConfig config = {});
  ~SwitchSupervisor();
  SwitchSupervisor(const SwitchSupervisor&) = delete;
  SwitchSupervisor& operator=(const SwitchSupervisor&) = delete;

  /// Queue a supervised switch request. Returns its id. The callback fires
  /// on resolution (already-in-target resolves immediately as committed;
  /// virtual targets under quarantine fail fast as kFailedQuarantined).
  std::uint64_t submit(ExecMode target, RequestOptions opts = {},
                       RequestCallback cb = nullptr);

  /// Revoke a live request (also revokes its in-flight engine request).
  /// False if the id is unknown or already terminal.
  bool cancel(std::uint64_t id);

  /// Synchronous convenience mirroring SwitchEngine::switch_now: submit and
  /// drive the kernel until the request resolves or `budget` runs out (the
  /// request is cancelled on budget exhaustion). True iff committed.
  bool switch_now(ExecMode target,
                  hw::Cycles budget = 500 * hw::kCyclesPerMillisecond,
                  RequestOptions opts = {});

  /// No live requests (queued, in flight, or backing off).
  bool idle() const { return live_ == 0; }

  SupervisorHealth health() const { return health_; }
  std::uint32_t consecutive_failures() const { return consecutive_failures_; }
  const SupervisorStats& stats() const { return stats_; }
  const SupervisorConfig& config() const { return config_; }
  SwitchEngine& engine() { return engine_; }

  /// The record for `id`, or nullptr. Records persist for the supervisor's
  /// lifetime (soak tests audit every one).
  const SupervisedRequest* find(std::uint64_t id) const;
  /// All records, in submission order.
  const std::deque<SupervisedRequest>& requests() const { return requests_; }

  /// The registry label ("supervisor=<n>") this supervisor's stats use.
  const std::string& obs_label() const { return obs_label_; }

  /// The deterministic backoff schedule, exposed for unit tests: delay for
  /// the retry after `attempt` failed attempts (attempt >= 1), consuming
  /// exactly one draw from `rng`.
  static hw::Cycles backoff_delay(const SupervisorConfig& cfg,
                                  std::uint32_t attempt, util::Rng& rng);

 private:
  SupervisedRequest* find_mutable(std::uint64_t id);
  hw::Cycles now() const;
  void register_obs_instruments();
  std::uint64_t enqueue(ExecMode target, const RequestOptions& opts,
                        RequestCallback cb, bool probe, bool internal);
  /// Start the best queued request if the engine and supervisor are free.
  void pump();
  void start_attempt(SupervisedRequest& req);
  void on_engine_resolve(ExecMode target, SwitchOutcome outcome);
  void on_attempt_failed(SupervisedRequest& req);
  void arm_retry(SupervisedRequest& req);
  void arm_deadline(SupervisedRequest& req);
  void resolve(SupervisedRequest& req, RequestState terminal);
  /// Attach-health bookkeeping (only attach attempts move the machine).
  /// `target` is the virtual mode the attempt drove toward; failures
  /// remember it so a quarantine probe retests the mode that broke.
  void note_attach_result(bool success, ExecMode target);
  void transition_health(SupervisorHealth to);
  void enter_quarantine();
  void dump_quarantine_postmortem();
  void arm_probe_timer();
  void fire_probe();

  SwitchEngine& engine_;
  kernel::Kernel& kernel_;
  SupervisorConfig config_;
  util::Rng rng_;

  std::deque<SupervisedRequest> requests_;  // stable storage, id = index+1
  std::deque<RequestCallback> callbacks_;   // parallel to requests_; deque so
                                            // re-entrant submits from a
                                            // running callback never move it
  std::vector<std::uint64_t> queue_;        // queued request ids
  std::uint64_t active_ = 0;                // id driving the engine (0 = none)
  std::uint64_t live_ = 0;                  // non-terminal request count
  bool pumping_ = false;                    // pump() reentrancy guard

  SupervisorHealth health_ = SupervisorHealth::kHealthy;
  std::uint32_t consecutive_failures_ = 0;
  bool probe_timer_armed_ = false;
  /// The virtual mode whose failed attach most recently moved the health
  /// machine: recovery probes retest this mode, not a fixed one — a
  /// partial-virtual success must not declare a full-virtual quarantine
  /// healed.
  ExecMode probe_target_ = ExecMode::kPartialVirtual;

  SupervisorStats stats_;
  std::string obs_label_;
  obs::CallbackGuard obs_callbacks_;
  /// Kernel timers capture a weak reference to this: a timer surviving the
  /// supervisor must degrade to a no-op, not a use-after-free.
  std::shared_ptr<SwitchSupervisor*> self_;
};

}  // namespace mercury::core
