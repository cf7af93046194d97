// Linked into every test binary (see CMakeLists.txt): before main runs,
// point postmortem bundles at the build tree unless the user chose a
// directory, so running a test binary from the repo root no longer litters
// it with mercury-postmortem-<pid>-<slot>.json files.
#include "obs/postmortem.hpp"

namespace {
const bool kPostmortemDirDefaulted = [] {
  mercury::obs::default_postmortem_dir_beside_binary();
  return true;
}();
}  // namespace
