#include "obs/pause_ledger.hpp"

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mercury::obs {

namespace {

PauseLedger*& ambient_storage() {
  static PauseLedger* current = nullptr;
  return current;
}

}  // namespace

const char* pause_cause_name(PauseCause c) {
  switch (c) {
    case PauseCause::kRendezvousParked: return "rendezvous-parked";
    case PauseCause::kCrewShardWork: return "crew-shard-work";
    case PauseCause::kTlbShootdown: return "tlb-shootdown";
    case PauseCause::kHypercallEmulation: return "hypercall-emulation";
    case PauseCause::kRollbackUnwind: return "rollback-unwind";
    case PauseCause::kSupervisorRetryBackoff:
      return "supervisor-retry-backoff";
    case PauseCause::kMigrateStopCopy: return "migrate-stop-copy";
    case PauseCause::kCheckpointCopy: return "checkpoint-copy";
    case PauseCause::kCauseCount: break;
  }
  return "?";
}

PauseLedger::PauseLedger() : causes_(kPauseCauseCount) {}

const PauseLedger::CauseSlot& PauseLedger::per_cause(PauseCause c) const {
  return causes_[static_cast<std::size_t>(c)];
}

void PauseLedger::note_worst(PauseCause cause, std::uint32_t cpu,
                             hw::Cycles begin, hw::Cycles end,
                             const char* detail) {
  const hw::Cycles span = end - begin;
  if (worst_.valid && span <= worst_.span()) return;
  worst_.valid = true;
  worst_.cause = cause;
  worst_.cpu = cpu;
  worst_.begin = begin;
  worst_.end = end;
  worst_.detail = detail;
#if MERCURY_OBS_ENABLED
  // Capture the seq the pause.worst event will get, then emit it: the
  // artifact's worst.flight_seq points at a real ring entry, so a report
  // can cut the black-box tail around the worst interval.
  worst_.flight_seq = flight_recorder().next_seq();
  flight_recorder().record(cpu, FlightType::kPauseWorst,
                           pause_cause_name(cause), end,
                           static_cast<std::uint64_t>(cause), begin, span);
#endif
}

void PauseLedger::record(PauseCause cause, std::uint32_t cpu, hw::Cycles begin,
                         hw::Cycles end, const char* detail) {
  MERC_CHECK_MSG(cause < PauseCause::kCauseCount,
                 "pause interval with no valid cause: "
                     << (detail ? detail : "") << " on cpu " << cpu);
  if (end < begin) end = begin;
  const hw::Cycles span = end - begin;
  CauseSlot& slot = causes_[static_cast<std::size_t>(cause)];
  slot.hist.add(span);
  slot.moments.add(static_cast<double>(span));
  ++slot.count;
  slot.total += span;
  if (cpu >= cpu_totals_.size()) cpu_totals_.resize(cpu + 1, 0);
  cpu_totals_[cpu] += span;
  ++intervals_;
  note_worst(cause, cpu, begin, end, detail);
}

std::uint64_t PauseLedger::quantile(PauseCause c, double q) const {
  const CauseSlot& slot = per_cause(c);
  if (q >= 1.0)
    return static_cast<std::uint64_t>(slot.moments.max());
  return slot.hist.quantile(q);
}

hw::Cycles PauseLedger::cpu_total(std::uint32_t cpu) const {
  return cpu < cpu_totals_.size() ? cpu_totals_[cpu] : 0;
}

void PauseLedger::merge(const PauseLedger& other) {
  for (std::size_t i = 0; i < kPauseCauseCount; ++i) {
    CauseSlot& dst = causes_[i];
    const CauseSlot& src = other.causes_[i];
    dst.hist.merge(src.hist);
    dst.moments.merge(src.moments);
    dst.count += src.count;
    dst.total += src.total;
  }
  if (other.cpu_totals_.size() > cpu_totals_.size())
    cpu_totals_.resize(other.cpu_totals_.size(), 0);
  for (std::size_t i = 0; i < other.cpu_totals_.size(); ++i)
    cpu_totals_[i] += other.cpu_totals_[i];
  intervals_ += other.intervals_;
  if (other.worst_.valid &&
      (!worst_.valid || other.worst_.span() > worst_.span()))
    worst_ = other.worst_;
}

void PauseLedger::clear() {
  for (CauseSlot& slot : causes_) slot = CauseSlot{};
  cpu_totals_.clear();
  intervals_ = 0;
  // worst_ survives: the run's worst interval outlives per-cell clears.
}

void PauseLedger::reset() {
  clear();
  worst_ = PauseWorst{};
}

std::string PauseLedger::to_json() const {
  std::string out = "{\"schema\":\"mercury.pause.v1\",\"intervals\":";
  out += std::to_string(intervals_);
  out += ",\"unattributed\":";
  out += std::to_string(unattributed());
  out += ",\"worst\":{\"cause\":";
  append_json_string(out, worst_.valid ? pause_cause_name(worst_.cause)
                                       : "none");
  out += ",\"cpu\":";
  out += std::to_string(worst_.cpu);
  out += ",\"begin\":";
  out += std::to_string(worst_.begin);
  out += ",\"end\":";
  out += std::to_string(worst_.end);
  out += ",\"span\":";
  out += std::to_string(worst_.valid ? worst_.span() : 0);
  out += ",\"detail\":";
  append_json_string(out, worst_.detail ? worst_.detail : "");
  out += ",\"flight_seq\":";
  out += std::to_string(worst_.flight_seq);
  out += "},\"causes\":[";
  for (std::size_t i = 0; i < kPauseCauseCount; ++i) {
    const PauseCause c = static_cast<PauseCause>(i);
    const CauseSlot& slot = causes_[i];
    if (i) out += ',';
    out += "{\"name\":";
    append_json_string(out, pause_cause_name(c));
    out += ",\"count\":";
    out += std::to_string(slot.count);
    out += ",\"total_cycles\":";
    out += std::to_string(slot.total);
    out += ",\"p50\":";
    out += std::to_string(quantile(c, 0.5));
    out += ",\"p99\":";
    out += std::to_string(quantile(c, 0.99));
    out += ",\"max\":";
    out += std::to_string(quantile(c, 1.0));
    out += '}';
  }
  out += "],\"cpus\":[";
  for (std::size_t i = 0; i < cpu_totals_.size(); ++i) {
    if (i) out += ',';
    out += "{\"cpu\":";
    out += std::to_string(i);
    out += ",\"total_cycles\":";
    out += std::to_string(cpu_totals_[i]);
    out += '}';
  }
  // Black-box context for the worst interval: enough surrounding flight
  // events that blackbox_report.py can render the tail without a separate
  // postmortem bundle.
  out += "],\"flight\":{\"events\":";
  out += flight_events_json(flight_recorder().tail(64));
  out += "}}";
  return out;
}

PauseLedger& pause_ledger() {
  static PauseLedger global;
  // Ledger health must be visible in every --metrics-json artifact.
  static const bool registered = [] {
    registry().register_callback("obs.pause.intervals", {}, [] {
      return static_cast<double>(pause_ledger().intervals());
    });
    registry().register_callback("obs.pause.unattributed", {}, [] {
      return static_cast<double>(pause_ledger().unattributed());
    });
    registry().register_callback("obs.pause.worst_cycles", {}, [] {
      const PauseWorst& w = pause_ledger().worst();
      return w.valid ? static_cast<double>(w.span()) : 0.0;
    });
    return true;
  }();
  (void)registered;
  PauseLedger* current = ambient_storage();
  return current ? *current : global;
}

PauseLedgerScope::PauseLedgerScope(PauseLedger& ledger)
    : prev_(ambient_storage()) {
  ambient_storage() = &ledger;
}

PauseLedgerScope::~PauseLedgerScope() { ambient_storage() = prev_; }

}  // namespace mercury::obs
