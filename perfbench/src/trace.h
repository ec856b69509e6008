// The traced run: a forwarding ReplicationGroup that records one span per
// group primitive, per-op spans from the phase runner, and an exclusive split
// of wall time between the storage engine, the group, the event loop and
// everything else. Spans stay in memory and are written once at the end
// as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/group.h"
#include "phase.h"

namespace perfbench {

enum class Prim : uint8_t { kGwrite, kGwritev, kGmemcpy, kGcas, kGflush };

struct GroupSpan {
  Prim prim = Prim::kGwrite;
  uint32_t bytes = 0;
  sim::Time submit = 0;
  sim::Time done = -1;
  int64_t wall_ns = 0;  ///< inside the forwarded call
  uint32_t first_parent = 0;  ///< into Tracer::parents_
  uint32_t num_parents = 0;
};

class Tracer {
 public:
  /// Exclusive wall-time buckets; a nested entry pauses its parent.
  enum Bucket : int { kOther = 0, kLoop, kEngine, kGroup, kBuckets };

  Tracer(sim::EventLoop& loop, uint32_t value_size, size_t max_kept_spans);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Wraps `real`; the store should be handed the returned group.
  core::ReplicationGroup& wrap(core::ReplicationGroup& real);

  void push(Bucket b);
  void pop();
  /// Starts and stops the wall accounting of the measured phase.
  void start_wall();
  void stop_wall();
  double bucket_frac(Bucket b) const;
  int64_t bucket_ns(Bucket b) const { return bucket_ns_[b]; }

  /// Records a group span; returns its index. Parents are found by
  /// scanning the payload the primitive carries for benchmark values.
  uint32_t begin_span(Prim p, uint32_t bytes, const uint8_t* payload,
                      size_t payload_len);
  void end_span(uint32_t idx);
  void set_wall(uint32_t idx, int64_t ns) { spans_[idx].wall_ns = ns; }

  /// Simulated-latency percentile (us) of completed spans of one kind.
  double span_percentile_us(Prim p, double pct) const;
  /// Union of in-flight primitive spans over [t0, t1], as a fraction.
  double busy_frac(sim::Time t0, sim::Time t1) const;
  size_t spans() const { return spans_.size(); }

  /// Writes op spans and the first kept group spans as Chrome JSON.
  bool write_chrome_json(const std::string& path,
                         const std::vector<OpRecord>& ops) const;

 private:
  using Clock = std::chrono::steady_clock;
  sim::EventLoop& loop_;
  uint32_t value_size_;
  size_t max_kept_;
  std::unique_ptr<core::ReplicationGroup> wrapper_;
  std::vector<GroupSpan> spans_;
  std::vector<uint64_t> parents_;
  std::vector<Bucket> stack_;
  Clock::time_point last_;
  int64_t bucket_ns_[kBuckets] = {};
  bool wall_on_ = false;
};

}  // namespace perfbench
