// Virtual address space layout (paper §3.2.2).
//
// Mercury *unifies* the layout between modes by permanently reserving the
// top 64 MB for the VMM (Xen's home), so no address-space surgery is needed
// at switch time: user 0..3GB, kernel direct map at 3GB, VMM at 4GB-64MB.
#pragma once

#include "hw/types.hpp"

namespace mercury::kernel {

inline constexpr hw::VirtAddr kUserBase = 0x0040'0000;   // keep page 0 unmapped
inline constexpr hw::VirtAddr kUserTop = 0xC000'0000;
inline constexpr hw::VirtAddr kKernelBase = 0xC000'0000;  // direct map of phys
inline constexpr hw::VirtAddr kVmmBase = 0xFC00'0000;     // reserved 64 MB
inline constexpr std::size_t kVmmRegionBytes = 64ull << 20;

inline constexpr bool is_user_va(hw::VirtAddr va) {
  return va >= kUserBase && va < kUserTop;
}

// User-space region conventions used by the workloads.
inline constexpr hw::VirtAddr kUserText = 0x0040'0000;
inline constexpr hw::VirtAddr kUserHeap = 0x1000'0000;
inline constexpr hw::VirtAddr kUserMmap = 0x4000'0000;
inline constexpr hw::VirtAddr kUserStackTop = 0xBFFF'F000;

}  // namespace mercury::kernel
