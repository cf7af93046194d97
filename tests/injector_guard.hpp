// The fault-injection scope every fault-driving test opens first.
//
// On exit it disarms the injector and stops any storm, so one trial can
// never leak a fault regime into the next. While it lives, postmortem
// bundles go to the test temp dir instead of the working directory; a
// passing test's bundles are no evidence of anything and are removed, a
// failing test's stay for diagnosis. It also reports how many plans the
// scope armed without ever firing: a sweep whose plans all miss is
// asserting much less than it looks like.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/fault_inject.hpp"
#include "obs/postmortem.hpp"

namespace mercury::testing {

class InjectorGuard {
 public:
  /// Where the scope's postmortem bundles go.
  enum class Bundles {
    kTempDir,   // the test temp dir, removed if the test passed
    kEnvOrTemp  // $MERCURY_POSTMORTEM_DIR, kept, when set; else kTempDir
  };

  explicit InjectorGuard(Bundles where = Bundles::kTempDir)
      : in_temp_dir_(where == Bundles::kTempDir ||
                     std::getenv("MERCURY_POSTMORTEM_DIR") == nullptr),
        arms_before_(core::fault_injector().arms()),
        unfired_before_(core::fault_injector().unfired_disarms()) {
    if (in_temp_dir_) obs::set_postmortem_dir(::testing::TempDir());
  }

  ~InjectorGuard() {
    core::FaultInjector& fi = core::fault_injector();
    fi.disarm();
    fi.stop_storm();
    const std::uint64_t armed = fi.arms() - arms_before_;
    const std::uint64_t unfired = fi.unfired_disarms() - unfired_before_;
    if (unfired > 0) {
      std::printf("[ INJECTOR ] %llu of %llu armed plan(s) never fired\n",
                  static_cast<unsigned long long>(unfired),
                  static_cast<unsigned long long>(armed));
      ::testing::Test::RecordProperty("unfired_fault_plans",
                                      std::to_string(unfired));
    }
    if (in_temp_dir_ && !::testing::Test::HasFailure())
      obs::remove_own_postmortems();
    obs::set_postmortem_dir("");
  }

  InjectorGuard(const InjectorGuard&) = delete;
  InjectorGuard& operator=(const InjectorGuard&) = delete;

 private:
  bool in_temp_dir_;
  std::uint64_t arms_before_;
  std::uint64_t unfired_before_;
};

}  // namespace mercury::testing
