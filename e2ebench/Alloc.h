//===- e2ebench/Alloc.h - Counting global allocator --------------*- C++ -*-===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness replaces the global operator new/delete with a thin wrapper
/// over malloc/free that, while counting is on, adds each block's usable
/// size to per-thread counters. Traced runs turn counting on so a span can
/// tell how many heap bytes the layer it wraps allocated and kept; untraced
/// runs leave it off and pay one predictable branch per call. The program's
/// arenas (BumpPtrAllocator slabs) are allocated through operator new[],
/// so they are counted too.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_ALLOC_H
#define E2EBENCH_ALLOC_H

#include <cstdint>

namespace qb {

/// Cumulative heap traffic of one thread (or of all threads).
struct AllocCounts {
  uint64_t AllocBytes = 0; ///< Usable bytes handed out.
  uint64_t FreedBytes = 0; ///< Usable bytes returned.

  /// Bytes still held: allocated minus freed.
  int64_t live() const {
    return static_cast<int64_t>(AllocBytes) - static_cast<int64_t>(FreedBytes);
  }
};

/// Turns counting on or off for every thread. Set it while no other thread
/// is inside the measured region; the flag is read with relaxed ordering.
void setAllocCounting(bool On);

/// The calling thread's counters.
AllocCounts threadAllocCounts();

/// The sum over every thread that ever allocated while counting was on,
/// including threads that have exited.
AllocCounts processAllocCounts();

} // namespace qb

#endif // E2EBENCH_ALLOC_H
