// Heap allocation counters for a test binary that links alloc_count.cpp,
// which replaces every global operator new/delete form (plain, array,
// sized and std::align_val_t) with counting malloc/aligned_alloc wrappers.
#pragma once

#include <cstdint>

namespace hmps::test {

struct AllocTally {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;

  AllocTally operator-(const AllocTally& o) const {
    return AllocTally{calls - o.calls, bytes - o.bytes};
  }
};

/// Every operator new call since process start, aligned forms included.
AllocTally all_allocs();

/// The std::align_val_t forms only: over-aligned objects and every
/// rt::AlignedArray arena (the node pools of the simulated structures).
AllocTally aligned_allocs();

}  // namespace hmps::test
