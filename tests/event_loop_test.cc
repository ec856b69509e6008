#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "sim/rng.h"

// Binary-wide allocation counter: the steady-state zero-allocation claim
// in DESIGN.md is enforced here, not just asserted in prose.
#include "alloc_count.h"

namespace hyperloop::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  Time fired = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_after(50, [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, 150);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  Time fired = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_at(10, [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, 100);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel is a no-op
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelAfterFireReturnsFalse) {
  EventLoop loop;
  const EventId id = loop.schedule_at(10, [] {});
  loop.run();
  EXPECT_FALSE(loop.cancel(id));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  for (Time t = 10; t <= 100; t += 10) {
    loop.schedule_at(t, [&] { ++count; });
  }
  loop.run_until(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 50);
  loop.run();
  EXPECT_EQ(count, 10);
}

TEST(EventLoop, RunUntilAdvancesClockEvenWhenIdle) {
  EventLoop loop;
  loop.run_until(12345);
  EXPECT_EQ(loop.now(), 12345);
}

TEST(EventLoop, StopInterruptsRun) {
  EventLoop loop;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(i, [&] {
      ++count;
      if (count == 3) loop.stop();
    });
  }
  loop.run();
  EXPECT_EQ(count, 3);
  EXPECT_GT(loop.pending(), 0u);
}

TEST(EventLoop, EventsCanScheduleRecursively) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 100) loop.schedule_after(1, recur);
  };
  loop.schedule_after(0, recur);
  loop.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.now(), 99);
}

TEST(EventLoop, PendingCountsOnlyLiveEvents) {
  EventLoop loop;
  const EventId a = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, StaleIdCannotCancelRecycledSlot) {
  EventLoop loop;
  bool b_ran = false;
  const EventId a = loop.schedule_at(10, [] {});
  EXPECT_TRUE(loop.cancel(a));
  loop.run();  // pops the dead heap entry, recycling the slot
  const EventId b = loop.schedule_at(20, [&] { b_ran = true; });
  // The slab reuses the freed slot, so b must carry a fresh generation
  // tag that makes the stale id dead.
  ASSERT_EQ(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
  EXPECT_NE(a, b);
  EXPECT_FALSE(loop.cancel(a));
  loop.run();
  EXPECT_TRUE(b_ran);
}

TEST(EventLoop, CancelAfterFireOfRecycledSlotReturnsFalse) {
  EventLoop loop;
  const EventId a = loop.schedule_at(10, [] {});
  loop.run();
  bool b_ran = false;
  const EventId b = loop.schedule_at(20, [&] { b_ran = true; });
  ASSERT_EQ(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
  EXPECT_FALSE(loop.cancel(a));  // fired long ago; must not kill b
  loop.run();
  EXPECT_TRUE(b_ran);
}

TEST(EventLoop, ScheduleInsideCallbackAtSameTimeRunsAfterPending) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] {
    order.push_back(0);
    // Same timestamp, scheduled during dispatch: FIFO seq puts it after
    // the already-pending same-time event.
    loop.schedule_at(10, [&] { order.push_back(2); });
  });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoop, SteadyStateScheduleFireCycleDoesNotAllocate) {
  EventLoop loop;
  int n = 0;
  struct Chain {
    EventLoop* loop;
    int* n;
    void operator()() const {
      if (++*n < 1000) loop->schedule_after(1, Chain{loop, n});
    }
  };
  // Warm-up lap grows the slab and the heap array once.
  loop.schedule_after(1, Chain{&loop, &n});
  loop.run();
  n = 0;
  const uint64_t before = g_alloc_count;
  loop.schedule_after(1, Chain{&loop, &n});
  loop.run();
  EXPECT_EQ(g_alloc_count, before);
  EXPECT_EQ(loop.callback_heap_allocs(), 0u);
  EXPECT_EQ(n, 1000);
}

TEST(EventLoop, SteadyStateCancelChurnDoesNotAllocate) {
  EventLoop loop;
  struct Noop {
    void operator()() const {}
  };
  std::vector<EventId> ids;
  ids.reserve(256);
  for (int i = 0; i < 256; ++i) {
    ids.push_back(loop.schedule_after(1000000, Noop{}));
  }
  uint64_t cancelled = 0;
  auto churn_round = [&] {
    for (EventId& id : ids) {
      cancelled += loop.cancel(id) ? 1 : 0;
      id = loop.schedule_after(1000000, Noop{});
    }
    // Cancellation is lazy; advancing the clock one tick prunes this
    // round's dead heap entries (they sort ahead of the replacements).
    loop.run_until(loop.now() + 1);
  };
  churn_round();  // warm-up: heap reaches its steady-state capacity
  const uint64_t before = g_alloc_count;
  for (int round = 0; round < 100; ++round) churn_round();
  EXPECT_EQ(g_alloc_count, before);
  EXPECT_EQ(cancelled, 101u * 256u);
  for (EventId id : ids) loop.cancel(id);
}

// ---------------------------------------------------------------------------
// Oracle tests: the two-tier queue must fire in exactly the total order
// (time, insertion seq) that a reference ordered set gives, under
// randomized schedules, cancels and run_until deadlines.

constexpr Duration kW = EventLoop::kNearWindow;

/// Drives an EventLoop and a reference ordered set side by side. Every
/// scheduled event gets a reference sequence number in insertion order, so
/// the set's (time, seq) order is the order the loop must fire in.
class OracleHarness {
 public:
  explicit OracleHarness(uint64_t seed) : rng_(seed) {}

  EventLoop& loop() { return loop_; }
  Rng& rng() { return rng_; }
  const std::set<std::pair<Time, uint64_t>>& ref() const { return ref_; }
  uint64_t mismatches() const { return mismatches_; }
  uint64_t fired() const { return fired_; }

  /// Schedules one event at absolute time `t` in both models. Callbacks
  /// scheduled from inside the loop pass `nested` so they can fan out.
  void schedule(Time t, bool nested) {
    const uint64_t seq = next_seq_++;
    const Time clamped = std::max(t, loop_.now());
    ref_.emplace(clamped, seq);
    ids_.push_back(loop_.schedule_at(t, [this, seq, nested] { on_fire(seq, nested); }));
    ref_time_.push_back(clamped);
    live_pos_.push_back(live_.size());
    live_.push_back(seq);
  }

  /// A delay mix that lands on both sides of the horizon: zero, sub-us,
  /// around one and two windows, several windows, and ms-scale timers.
  /// Times are often multiples of 100 ns so same-time ties are common.
  Duration draw_delay() {
    switch (rng_.next_below(8)) {
      case 0: return 0;
      case 1: return rng_.uniform_int(1, 999);
      case 2: return 100 * rng_.uniform_int(1, 9);
      case 3: return kW + rng_.uniform_int(-2, 2);
      case 4: return 2 * kW + rng_.uniform_int(-2, 2);
      case 5: return 100 * rng_.uniform_int(1, 4 * kW / 100);
      case 6: return msec(1) * rng_.uniform_int(1, 3);
      default: return rng_.uniform_int(0, 3 * kW);
    }
  }

  /// Cancels a random pending event in both models; false if none.
  bool cancel_random() {
    if (live_.empty()) return false;
    return cancel_seq(live_[rng_.next_below(live_.size())]);
  }

  /// Cancels the event the loop would fire next (the reference head).
  bool cancel_head() {
    if (ref_.empty()) return false;
    return cancel_seq(ref_.begin()->second);
  }

  /// Runs to `deadline` and checks that exactly the due events fired.
  void run_until_and_check(Time deadline) {
    const Time before = loop_.now();
    loop_.run_until(deadline);
    EXPECT_EQ(loop_.now(), std::max(before, deadline));
    if (!ref_.empty()) {
      EXPECT_GT(ref_.begin()->first, deadline);
    }
    EXPECT_EQ(loop_.pending(), ref_.size());
  }

 private:
  bool cancel_seq(uint64_t seq) {
    const bool ok = loop_.cancel(ids_[seq]);
    EXPECT_TRUE(ok) << "seq " << seq;
    EXPECT_FALSE(loop_.cancel(ids_[seq])) << "double cancel of seq " << seq;
    forget(seq);
    return ok;
  }

  /// Drops `seq` from the reference set and the pending list.
  void forget(uint64_t seq) {
    ref_.erase({ref_time_[seq], seq});
    const size_t i = live_pos_[seq];
    live_pos_[live_.back()] = i;
    live_[i] = live_.back();
    live_.pop_back();
  }

  void on_fire(uint64_t seq, bool nested) {
    ++fired_;
    if (ref_.empty() || *ref_.begin() != std::make_pair(loop_.now(), seq)) {
      ++mismatches_;
    }
    forget(seq);
    if (!nested) return;
    // Fan out into both tiers (1.25 children on average), sometimes
    // cancelling the new head or a random pending event.
    const uint64_t kids = std::min<uint64_t>(rng_.next_below(4), 2);
    for (uint64_t k = 0; k < kids; ++k) {
      schedule(loop_.now() + draw_delay(), fired_ < 20000);
    }
    if (rng_.next_below(16) == 0) cancel_head();
    if (rng_.next_below(16) == 0) cancel_random();
  }

  EventLoop loop_;
  Rng rng_;
  std::set<std::pair<Time, uint64_t>> ref_;
  std::vector<EventId> ids_;   // by seq
  std::vector<Time> ref_time_;  // by seq
  std::vector<uint64_t> live_;  // pending seqs, unordered
  std::vector<size_t> live_pos_;  // by seq: index into live_ while pending
  uint64_t next_seq_ = 0;
  uint64_t fired_ = 0;
  uint64_t mismatches_ = 0;
};

TEST(EventLoopOracle, RandomSchedulesFireInReferenceOrder) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    OracleHarness h(seed);
    for (int i = 0; i < 64; ++i) h.schedule(h.draw_delay(), true);
    h.loop().run();
    EXPECT_EQ(h.mismatches(), 0u) << "seed " << seed;
    EXPECT_TRUE(h.ref().empty());
    EXPECT_EQ(h.loop().pending(), 0u);
    EXPECT_GT(h.fired(), 1000u);
  }
}

TEST(EventLoopOracle, RunUntilDeadlinesAroundTheHorizon) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    OracleHarness h(seed);
    Rng& r = h.rng();
    for (int step = 0; step < 400; ++step) {
      // Schedule from outside the loop too, as the drivers do.
      for (uint64_t k = r.next_below(4); k > 0; --k) {
        h.schedule(h.loop().now() + h.draw_delay(), step < 300);
      }
      if (r.next_below(4) == 0) h.cancel_random();
      if (r.next_below(6) == 0) h.cancel_head();
      // Deadlines before, at and after one window past the next event
      // (where a refill puts the horizon), plus idle and ms-long spans.
      const Time head = h.ref().empty() ? h.loop().now() : h.ref().begin()->first;
      Time deadline = h.loop().now();
      switch (r.next_below(7)) {
        case 0: deadline = head - 1; break;
        case 1: deadline = head; break;
        case 2: deadline = head + kW - 1; break;
        case 3: deadline = head + kW; break;
        case 4: deadline = head + kW + 1; break;
        case 5: deadline = h.loop().now() + r.uniform_int(0, 3 * kW); break;
        default: deadline = h.loop().now() + msec(1); break;
      }
      h.run_until_and_check(deadline);
    }
    h.loop().run();
    EXPECT_EQ(h.mismatches(), 0u) << "seed " << seed;
    EXPECT_TRUE(h.ref().empty());
  }
}

TEST(EventLoopOracle, MillisecondTimersOnly) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EventLoop loop;
    Rng rng(seed);
    std::vector<std::pair<Time, int>> expected;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 500; ++i) {
      // Whole milliseconds: many exact ties, all far beyond any window.
      const Time t = msec(rng.uniform_int(1, 40));
      ids.push_back(loop.schedule_at(t, [&order, i] { order.push_back(i); }));
      expected.emplace_back(t, i);
    }
    std::vector<bool> cancelled(500, false);
    for (int i = 0; i < 500; i += 7) {
      EXPECT_TRUE(loop.cancel(ids[static_cast<size_t>(i)]));
      cancelled[static_cast<size_t>(i)] = true;
    }
    // (time, insertion index) is the FIFO order the loop must follow.
    std::sort(expected.begin(), expected.end());
    std::vector<int> want;
    Time last = 0;
    for (const auto& [t, i] : expected) {
      if (cancelled[static_cast<size_t>(i)]) continue;
      want.push_back(i);
      last = t;
    }
    loop.run_until(msec(20));
    loop.run();
    EXPECT_EQ(order, want) << "seed " << seed;
    EXPECT_EQ(loop.now(), last);
  }
}

TEST(EventLoopOracle, SameTimeTiesEitherSideOfTheHorizonAreFifo) {
  EventLoop loop;
  std::vector<int> order;
  // The first event sets the horizon to 1000 + kW when the far tier
  // refills, so ties at kW + 999 stay near and ties at kW + 1000 and
  // kW + 1001 stay far; interleave their insertion.
  loop.schedule_at(1000, [&] { order.push_back(0); });
  const Time times[3] = {1000 + kW - 1, 1000 + kW, 1000 + kW + 1};
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 3; ++k) {
      const int tag = 10 * (k + 1) + round;
      loop.schedule_at(times[k], [&order, tag] { order.push_back(tag); });
    }
  }
  loop.run_until(1000);
  // Scheduled after the refill: the same three instants, now from the
  // other side of the queue. FIFO must still hold per instant.
  for (int k = 0; k < 3; ++k) {
    const int tag = 10 * (k + 1) + 4;
    loop.schedule_at(times[k], [&order, tag] { order.push_back(tag); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 12, 13, 14, 20, 21, 22, 23, 24,
                                     30, 31, 32, 33, 34}));
}

TEST(EventLoopOracle, RunUntilPopsCancelledHeadPastDeadline) {
  EventLoop loop;
  const EventId far = loop.schedule_at(msec(5), [] {});
  bool ran = false;
  loop.schedule_at(msec(6), [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(far));
  // The cancelled head surfaces past the deadline; it is recycled, so its
  // slot is the one the next schedule reuses.
  loop.run_until(msec(1));
  EXPECT_EQ(loop.pending(), 1u);
  const EventId next = loop.schedule_at(msec(7), [] {});
  EXPECT_EQ(static_cast<uint32_t>(next), static_cast<uint32_t>(far));
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, SteadyStateMixedHorizonDoesNotAllocate) {
  // A sub-us chain next to ms-scale timers that re-arm themselves: both
  // tiers stay populated and the far tier refills the near one throughout.
  EventLoop loop;
  struct Fast {
    EventLoop* loop;
    int* n;
    void operator()() const {
      if (++*n < 20000) loop->schedule_after(700, Fast{loop, n});
    }
  };
  struct Timer {
    EventLoop* loop;
    int* fired;
    Duration period;
    int left;
    void operator()() const {
      ++*fired;
      if (left > 1) loop->schedule_after(period, Timer{loop, fired, period, left - 1});
    }
  };
  int n = 0;
  int timers = 0;
  auto lap = [&] {
    n = 0;
    timers = 0;
    loop.schedule_after(1, Fast{&loop, &n});
    for (int i = 0; i < 300; ++i) {
      loop.schedule_after(usec(10) + i * 97, Timer{&loop, &timers, usec(100) + i * 13, 10});
    }
    loop.run();
  };
  lap();  // warm-up: both heaps and the slab reach capacity
  const uint64_t before = g_alloc_count;
  lap();
  EXPECT_EQ(g_alloc_count, before);
  EXPECT_EQ(loop.callback_heap_allocs(), 0u);
  EXPECT_EQ(n, 20000);
  EXPECT_EQ(timers, 3000);
}

TEST(EventLoopDeathTest, PackKeyRejectsOutOfRangeFields) {
  // Both fields are checked in every build type: an overflowed key would
  // silently reorder events.
  EXPECT_DEATH(EventLoop::pack_key(EventLoop::kMaxSeq, 0), "queue key overflow");
  EXPECT_DEATH(EventLoop::pack_key(0, static_cast<uint32_t>(EventLoop::kMaxSlots)),
               "queue key overflow");
  // The largest legal values pack, and seq dominates the order.
  const uint64_t hi = EventLoop::pack_key(EventLoop::kMaxSeq - 1,
                                          static_cast<uint32_t>(EventLoop::kMaxSlots - 1));
  EXPECT_LT(hi, ~uint64_t{0});
  EXPECT_LT(EventLoop::pack_key(5, static_cast<uint32_t>(EventLoop::kMaxSlots - 1)),
            EventLoop::pack_key(6, 0));
}

}  // namespace
}  // namespace hyperloop::sim
