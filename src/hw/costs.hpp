// Hardware-level cost model (cycles at 3 GHz).
//
// These are the *primitive* costs every layer above builds on. They are the
// only calibrated inputs of the reproduction: they were tuned once so that
// the native-Linux (N-L) column of the paper's Table 1 is approximated; all
// virtualized-mode numbers must then emerge from the mechanisms (hypercalls,
// validation, ring crossings, split I/O), not from further tuning.
#pragma once

#include "hw/types.hpp"

namespace mercury::hw::costs {

// --- memory hierarchy ---
inline constexpr Cycles kCacheHit = 2;           // L1 access
inline constexpr Cycles kMemAccess = 90;         // DRAM access (cache miss)
inline constexpr Cycles kPageCopy = 3200;        // copy 4 KB (64 lines, streamed)
inline constexpr Cycles kPageZero = 1400;        // clear 4 KB

// --- address translation ---
inline constexpr Cycles kTlbHit = 1;
inline constexpr Cycles kTlbMissWalk = 2 * kMemAccess;  // 2-level walk
inline constexpr Cycles kTlbFlushAll = 95;       // CR3 reload pipeline cost
inline constexpr Cycles kTlbFlushPage = 40;      // INVLPG

// --- control transfers ---
inline constexpr Cycles kTrapEntry = 350;        // fault/interrupt into ring 0
inline constexpr Cycles kTrapReturn = 250;       // IRET
inline constexpr Cycles kSyscallEntry = 150;     // fast system call entry
inline constexpr Cycles kSyscallReturn = 120;
inline constexpr Cycles kPrivRegWrite = 30;      // MOV to CRx / LIDT / LGDT etc.

// --- interrupts ---
inline constexpr Cycles kIpiSendLatency = 900;   // APIC ICR write -> remote pin
inline constexpr Cycles kIpiAck = 120;

// --- devices ---
inline constexpr Cycles kDiskOverhead = 5 * kCyclesPerMicrosecond;    // controller+DMA setup
inline constexpr Cycles kDiskSeek = 4500 * kCyclesPerMicrosecond;     // 10k RPM avg seek+rot
inline constexpr Cycles kDiskPerByte = 1;        // ~55 MB/s streaming at 3 GHz => ~0.05 c/B; keep 1 for FS pressure realism
inline constexpr Cycles kNicTxOverhead = Cycles(2.5 * kCyclesPerMicrosecond);  // driver + DMA per packet
inline constexpr Cycles kNicRxOverhead = 3 * kCyclesPerMicrosecond;
inline constexpr Cycles kSensorRead = 4 * kCyclesPerMicrosecond;      // SMBus poll

}  // namespace mercury::hw::costs
