// Open-loop phase runner: generates one phase's ops from a seed, submits
// each at its due time as a simulated event, times it from due to done,
// validates every value read, and after a drain crashes every replica's
// NVM and checks that each acknowledged write survived.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "testbed.h"

namespace perfbench {

class HostGauge;
class Tracer;

enum class OpKind : uint8_t { kRead, kUpdate, kReadModifyWrite };

struct OpRecord {
  /// Poisson arrival time in ns, kept exact; the op is submitted at the
  /// first simulator tick at or after it, and timed from it.
  double arrival = 0;
  sim::Time due = 0;  ///< submission tick: ceil(arrival)
  sim::Time done = -1;  ///< -1: not finished
  uint64_t key = 0;
  /// For reads: the write op acknowledged last on `key` when the read was
  /// submitted (kBulk: the bulk-loaded image).
  uint64_t acked_at_submit = 0;
  OpKind kind = OpKind::kRead;
  bool submitted = false;
  bool ok = false;
};

inline constexpr uint64_t kBulk = ~uint64_t{0};

/// Simulated-time and work counters, summed over the whole testbed. A
/// phase reports the difference between two snapshots.
struct Counters {
  std::vector<std::pair<std::string, double>> v;
  double get(const std::string& name) const;
};
Counters snapshot(Testbed& tb);

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;      ///< failed or unfinished at the deadline
  uint64_t bad_values = 0;  ///< reads that returned an impossible value
  uint64_t lost_writes = 0; ///< acked writes missing after crash + replay
  bool wall_guard_hit = false;
  double wall_s = 0;        ///< first due op to last completion
  /// Ops completed per wall second in each of 200 equal windows of the
  /// offered span.
  std::vector<double> window_rates;
  /// The gauge's time after each window, when the phase had a gauge.
  std::vector<double> window_gauge_s;
  double run_until_wall_s = 0;
  uint64_t events = 0;      ///< simulator events over the same span
  sim::Duration sim_elapsed = 0;  ///< first due to last completion
  sim::Duration offered_span = 0;  ///< first to last due time
  /// Latencies in ns from due time; failed and unfinished ops are +inf.
  std::vector<double> all, writes, reads;
  Counters delta;              ///< counters over the phase and its drain
  uint64_t heap_allocs = 0;    ///< operator new calls during the phase
  uint64_t heap_bytes = 0;
  double dirty_kb_after_drain = 0;
  std::vector<OpRecord> ops;   ///< kept only for traced phases
};

struct PhaseParams {
  double rate = 0;
  uint64_t ops = 0;
  uint64_t seed = 0;
  double wall_guard_s = 0;  ///< abandon the phase past this much wall time
  /// Timed after each window when set; its time is left out of every
  /// wall-clock figure of the phase.
  HostGauge* gauge = nullptr;
};

/// Runs one open-loop phase on a freshly set-up testbed, then drains,
/// crashes every replica's NVM and checks durability. `tracer` may be
/// null. The testbed is not usable for another phase afterwards.
PhaseResult run_phase(Testbed& tb, const PhaseParams& p, Tracer* tracer);

/// Percentile (0..100), interpolated between the two nearest ranks (the
/// median of an even count is the mean of the middle pair); +inf when
/// the upper rank is a failed op. Sorts `samples`.
double percentile(std::vector<double>& samples, double p);

}  // namespace perfbench
