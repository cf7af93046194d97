// A dirty-frame sink that records every notification a PhysicalMemory
// sends while it is installed: the frames a store path reported, in order,
// duplicates included. Installed for the object's lifetime; the memory's
// previous sink comes back on destruction.
#pragma once

#include <vector>

#include "hw/phys_mem.hpp"

namespace mercury::testing {

class RecordingSink final : public hw::DirtySink {
 public:
  explicit RecordingSink(hw::PhysicalMemory& mem)
      : mem_(mem), prev_(mem.dirty_sink()) {
    mem_.set_dirty_sink(this);
  }
  ~RecordingSink() override { mem_.set_dirty_sink(prev_); }
  RecordingSink(const RecordingSink&) = delete;
  RecordingSink& operator=(const RecordingSink&) = delete;

  void note_dirty(hw::Pfn pfn) override { noted.push_back(pfn); }

  std::vector<hw::Pfn> noted;

 private:
  hw::PhysicalMemory& mem_;
  hw::DirtySink* prev_;
};

}  // namespace mercury::testing
