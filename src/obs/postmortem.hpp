// Postmortem bundles: the black box's crash dump.
//
// When a switch rolls back on an injected fault, the invariant checker
// reports violations, or a MERC_CHECK fires, the process captures a
// `mercury.postmortem.v1` JSON bundle: the flight-recorder tail, a full
// metrics snapshot, per-CPU simulated clocks, the in-flight switch modes,
// the VO refcount, and caller-supplied extras (PageInfoTable shard
// counters, engine stats). The bundle is everything a human — or
// scripts/blackbox_report.py — needs to reconstruct what the engine was
// doing when it died, without a debugger attached to the original run.
//
// Bundles are written to a configurable directory (set_postmortem_dir, or
// the MERCURY_POSTMORTEM_DIR environment variable) into a fixed pool of
// rotating slot files per process (mercury-postmortem-<pid>-<slot>.json):
// like the flight ring itself, the black box bounds its disk footprint and
// keeps the newest evidence. Processes sharing the directory never write
// to one another's slots, and each bundle is written to a temp name and
// renamed into place, so a reader never sees a half-written file. Writing
// is unconditional — a MERCURY_OBS=OFF build still dumps bundles (with an
// empty flight tail), because postmortem capture is a dependability
// feature, not telemetry.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hw/types.hpp"

namespace mercury::obs {

/// Everything the dump site knows about the failure. String fields must be
/// static or outlive the write_postmortem call.
struct PostmortemContext {
  const char* reason = "unknown";  // "fault-rollback" | "invariant-failure" | "assert"
  std::string detail;              // free text: fault plan, violation list, message

  const char* switch_from = nullptr;    // exec mode names, when a switch was in flight
  const char* switch_target = nullptr;

  bool has_fault = false;          // FaultInjected details, when that was the trigger
  const char* fault_site = nullptr;
  const char* fault_kind = nullptr;
  std::uint32_t fault_cpu = 0;

  std::int64_t active_refs = -1;   // current VO refcount; -1 = unknown

  /// (cpu id, simulated clock) for every CPU.
  std::vector<std::pair<std::uint32_t, hw::Cycles>> cpu_clocks;
  /// Named scalars: PageInfoTable shard counters, engine stats, ...
  std::vector<std::pair<std::string, std::uint64_t>> extra;
};

/// Where bundles go. Default: $MERCURY_POSTMORTEM_DIR, else the working
/// directory. An empty string resets to that default.
void set_postmortem_dir(const std::string& dir);
std::string postmortem_dir();

/// If neither set_postmortem_dir nor $MERCURY_POSTMORTEM_DIR is in effect,
/// point bundles at the directory containing the running binary (the build
/// tree for tests/benches) instead of the working directory, so ad-hoc runs
/// from the repo root stop littering it with slot files. No-op off Linux.
void default_postmortem_dir_beside_binary();

/// Serialize `ctx` (+ flight tail, + metrics snapshot) and write it to the
/// next slot file. Returns the path written, or "" on I/O failure. At most
/// `flight_tail` events are embedded.
std::string write_postmortem(const PostmortemContext& ctx,
                             std::size_t flight_tail = 256);

/// The path the most recent write_postmortem produced ("" before the first).
std::string last_postmortem_path();
/// Delete the bundles this process wrote into the current directory. Slot
/// names are per process, so nothing else ever would: a test that routes
/// its bundles into a shared temp directory calls this once it has passed.
void remove_own_postmortems();
/// Bundles written since process start (monotonic; slots rotate, this does
/// not).
std::uint64_t postmortem_count();

/// Build the bundle JSON without writing it (the serializer behind
/// write_postmortem; exposed for tests).
std::string postmortem_json(const PostmortemContext& ctx,
                            std::size_t flight_tail = 256);

/// Install the util::assert failure hook that dumps an "assert" bundle
/// before InvariantError propagates. Idempotent; reentrancy-guarded so a
/// check failing *inside* the dump cannot recurse.
void install_assert_postmortem_hook();

}  // namespace mercury::obs
