// Process-wide heap counters, fed by the replaced global operator new
// in alloc_count.cc. The benchmark runs on one thread.
#pragma once

#include <cstdint>

namespace perfbench {

struct HeapCount {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

HeapCount heap_count();

}  // namespace perfbench
