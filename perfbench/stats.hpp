// Sample statistics and the per-switch phase decomposition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/switch_engine.hpp"

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the value at
/// sorted index n-11. With fewer than 11 samples no percentile qualifies and
/// the maximum is reported instead (percentile 100).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

/// One committed mode switch, read from SwitchStats right after it resolved.
/// Everything stays in integer cycles so the decomposition is exact:
/// the named parts plus `residual()` equal `total()` for every switch.
struct SwitchSample {
  bool attach = true;
  std::uint64_t defer = 0;    // request -> commit start (§5.1.1 wait)
  std::uint64_t elapsed = 0;  // commit start -> commit end (§7.4 switch time)
  std::uint64_t rendezvous = 0;
  std::uint64_t page_info = 0;  // attach only
  std::uint64_t protect = 0;    // attach: PT protect; detach: unprotect
  std::uint64_t fixup = 0;      // attach only (detach fixup is residual)
  std::uint64_t bindings = 0;

  /// Requester-visible latency: the deferral wait plus the commit window.
  std::uint64_t total() const { return defer + elapsed; }
  std::uint64_t named_parts() const {
    return defer + rendezvous + page_info + protect + fixup + bindings;
  }
  /// total() minus the named parts; negative if the parts overlap.
  std::int64_t residual() const {
    return static_cast<std::int64_t>(total()) -
           static_cast<std::int64_t>(named_parts());
  }
};

/// Snapshot the last committed attach (attach = true) or detach.
SwitchSample sample_switch(const mercury::core::SwitchStats& s, bool attach);

}  // namespace perfbench
