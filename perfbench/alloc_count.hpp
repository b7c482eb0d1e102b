// Heap-allocation counts over a window of the benchmark (see
// alloc_count.cpp, which replaces the global operator new).
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t count = 0;  // calls to operator new
  std::uint64_t bytes = 0;  // bytes requested by those calls
};

/// Zeroes the counters and starts counting.
void start_alloc_count();
/// Stops counting and returns what was counted since start_alloc_count().
AllocCounts stop_alloc_count();

}  // namespace perfbench
