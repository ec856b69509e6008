// Host speed gauges. On a shared host the speed of a core, and the cost of
// faulting in and zeroing memory, drift by a quarter and more over seconds
// to minutes with the load the neighbours put on the machine; no median
// inside one run removes drift that outlasts the run. Each gauge is a
// fixed unit of work, timed next to what the benchmark measures so that
// the measurement can be scaled to one reference host speed.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Shaped like the simulator's event loop: a binary-heap queue feeding
/// dependent loads and stores. Timed right after each window of the
/// nominal phase. Its data fit in L2 and are warmed before timing, so the
/// program's own memory traffic does not change the gauge's time.
class HostGauge {
 public:
  HostGauge();
  /// Wall seconds one unit of work takes now (about 1 ms on a 2.1 GHz
  /// Xeon with no neighbours busy).
  double measure();

 private:
  std::vector<uint64_t> words_;
  std::vector<uint64_t> heap_;
  uint64_t idx_ = 0;
};

/// Wall seconds to map, fill and unmap 64 MB of fresh pages, the kind of
/// work that dominates a testbed's set-up (35-50 ms on a 2.1 GHz Xeon
/// host).
double memory_gauge_s();

}  // namespace perfbench
