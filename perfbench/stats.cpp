#include "stats.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

SwitchSample sample_switch(const mercury::core::SwitchStats& s, bool attach) {
  SwitchSample x;
  x.attach = attach;
  x.defer = s.last_defer_wait_cycles;
  x.elapsed = attach ? s.last_attach_cycles : s.last_detach_cycles;
  x.rendezvous = s.last_rendezvous_cycles;
  x.protect = s.last_transfer.protection_cycles;
  x.bindings = s.last_transfer.binding_cycles;
  if (attach) {
    x.page_info = s.last_transfer.page_info_cycles;
    x.fixup = s.last_transfer.fixup_cycles;
  }
  return x;
}

}  // namespace perfbench
