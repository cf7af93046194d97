// The machine-speed reference for the benchmark's host times.
//
// On a shared host the same work can take 1.5x longer from one minute to the
// next while other tenants compete for the caches, with no steal time to show
// for it. So the benchmark times a fixed reference workload, which does not
// touch the simulator, right before and right after every iteration, and
// reports each host time scaled to a machine on which the pair takes
// kReferenceNominalS:
//
//   reported = measured * kReferenceNominalS / reference
//
// The reference is ordered-map churn (pointer chasing and short allocations,
// the simulator's own kind of work) in a private arena, so its memory layout
// does not depend on what a run left in the heap.
#pragma once

namespace perfbench {

/// Thread CPU seconds of one pass of the reference workload.
double reference_seconds();

/// What a pass before plus a pass after an iteration take on an idle
/// 4-vCPU Xeon (Sapphire Rapids) VM.
inline constexpr double kReferenceNominalS = 0.1;

}  // namespace perfbench
