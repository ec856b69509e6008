// Deterministic discrete-event simulation core.
//
// The event loop is the heartbeat of the whole reproduction: NICs, links,
// CPU schedulers, storage engines and benchmark drivers all advance by
// scheduling closures at future simulated instants. Determinism is
// guaranteed by (a) a single-threaded loop and (b) FIFO tie-breaking among
// events scheduled for the same instant (via a monotonically increasing
// sequence number).
//
// Hot-path design (zero steady-state allocation):
//   * Event records live in a chunked slab of fixed-size slots. Slot
//     addresses are stable (chunks never move), so callbacks may schedule
//     further events while running without invalidating their own storage.
//   * An EventId packs (generation << 32 | slot index). cancel() is O(1):
//     index into the slab, compare generations — no hashing, no map.
//     Generations are bumped when a slot is recycled, so a stale id for a
//     reused slot is rejected.
//   * Pending events are ordered by a two-tier queue of 16-byte
//     (time, key) entries, where key packs (seq << kSlotBits | slot
//     index), so comparing keys compares insertion order. A small near
//     heap holds every event earlier than a moving horizon_; events at or
//     past it wait in a far heap. Most events fire well under a
//     microsecond ahead, so they sift through a heap a few entries deep
//     while long timers (think times, retry and refill ticks) stay out of
//     the way. When the near heap drains, the earliest kNearWindow of far
//     events moves in and the horizon advances. Every near event is
//     earlier than the horizon and every far event is at or after it, so
//     pop order is exactly the total order (time, seq).
//   * Both tiers are 4-ary min-heaps: a family of four 16-byte children
//     spans 64 bytes, and the smallest is picked with a branch-free
//     min-of-4 over sentinel-padded storage. Pops run bottom-up.
//   * Cancellation is lazy: the slot is marked dead (its callback is
//     destroyed eagerly to release captured resources) and the heap entry
//     is skipped and recycled when it surfaces.
//   * Callbacks are stored inline in the slot when they fit
//     kInlineCallbackBytes (covers every capture in the simulator's hot
//     paths, including full Packet captures); larger callables fall back
//     to one heap allocation, counted in callback_heap_allocs().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace hyperloop::sim {

/// Identifies a scheduled event so it can be cancelled before it fires.
/// Packs (generation << 32 | slot index); never 0, so 0 can be used as a
/// "no event" sentinel by callers.
using EventId = uint64_t;

/// A single-threaded, deterministic discrete-event loop.
///
/// Events are closures ordered by (time, insertion sequence). `run()`
/// drains the queue; `run_until()` stops the clock at a given instant,
/// leaving later events pending. Cancellation is lazy: cancelled events
/// stay queued but are skipped when popped.
class EventLoop {
 public:
  /// Callbacks whose size is <= this are stored inline in the slab (no
  /// heap allocation). Sized so a lambda capturing [this, Packet] in the
  /// RDMA delivery path fits.
  static constexpr size_t kInlineCallbackBytes = 112;

  /// Width of the near tier: when the near heap drains, far events within
  /// this span of the earliest one move in. 86-91% of events are
  /// scheduled under 1 us ahead; with 8 us few of them miss the near tier
  /// while ms-scale timers stay far. Throughput is flat from 4 to 32 us
  /// (EXPERIMENTS.md, "Two-tier event queue", has the sensitivity runs).
  static constexpr Duration kNearWindow = usec(8);

  /// Low bits of a queue key that hold the slot index; the high bits hold
  /// the insertion sequence number.
  static constexpr unsigned kSlotBits = 24;
  /// Exclusive bounds of the two packed fields. The sequence bound leaves
  /// the all-ones key to the heap sentinel.
  static constexpr uint64_t kMaxSlots = uint64_t{1} << kSlotBits;
  static constexpr uint64_t kMaxSeq = (uint64_t{1} << (64 - kSlotBits)) - 1;

  /// Packs (seq, slot index) into one queue key. Terminates the process,
  /// in every build type, if either value exceeds its field: a silent
  /// wrap would reorder events.
  static uint64_t pack_key(uint64_t seq, uint32_t idx) {
    if ((seq >= kMaxSeq) | (idx >= kMaxSlots)) [[unlikely]] {
      key_overflow(seq, idx);
    }
    return (seq << kSlotBits) | idx;
  }

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute simulated time `t`.
  /// Scheduling in the past is clamped to `now()` (fires "immediately",
  /// after already-pending events at `now()`).
  template <typename F>
  EventId schedule_at(Time t, F&& fn) {
    if (t < now_) t = now_;
    const uint32_t idx = alloc_slot();
    Slot& s = slot(idx);
    emplace_callback(s, std::forward<F>(fn));
    s.state = Slot::kPending;
    (t < horizon_ ? near_ : far_).push(Entry{t, pack_key(seq_++, idx)});
    ++live_;
    return (uint64_t{s.gen} << 32) | idx;
  }

  /// Schedules `fn` to run `delay` nanoseconds from now.
  template <typename F>
  EventId schedule_after(Duration delay, F&& fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay),
                       std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns true if the event existed and had
  /// not yet fired; false otherwise (already fired or already cancelled).
  bool cancel(EventId id);

  /// Runs until the queue is empty or `stop()` is called.
  /// Returns the number of events executed.
  uint64_t run();

  /// Runs events with time <= `deadline`, then sets now() == deadline.
  /// Returns the number of events executed.
  uint64_t run_until(Time deadline);

  /// Runs events for `span` nanoseconds of simulated time from now().
  uint64_t run_for(Duration span) { return run_until(now_ + span); }

  /// Requests that `run()`/`run_until()` return after the current event.
  void stop() { stopped_ = true; }

  /// Number of live (not cancelled) pending events.
  size_t pending() const { return live_; }

  /// Total events executed since construction.
  uint64_t executed() const { return executed_; }

  /// Callbacks too large for inline slot storage that fell back to a heap
  /// allocation (performance hook; hot paths should keep this at 0).
  uint64_t callback_heap_allocs() const { return heap_cb_allocs_; }

  /// Slots ever materialized in the slab (capacity watermark).
  size_t slab_slots() const { return next_slot_; }

 private:
  static constexpr uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  struct Slot {
    enum State : uint8_t { kFree, kPending, kCancelled, kFiring };
    void (*invoke)(void*) = nullptr;
    /// Destroys the stored callable; nullptr when trivially destructible
    /// (skips an indirect call on the fire path).
    void (*destroy)(void*) = nullptr;
    uint32_t gen = 1;
    uint8_t state = kFree;
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };

  /// One queued event; 16 bytes, so a 4-ary family spans 64 bytes.
  struct Entry {
    Time time;
    uint64_t key;  // seq << kSlotBits | slot index
  };

  /// Lexicographic (time, key) order, evaluated without branches.
  static bool earlier(const Entry& a, const Entry& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.key < b.key));
  }

  static uint32_t slot_of(const Entry& e) {
    return static_cast<uint32_t>(e.key & (kMaxSlots - 1));
  }

  /// 4-ary min-heap of entries. The array always holds at least kPad
  /// sentinel entries past the last live one, so every family a sift-down
  /// visits has four readable children and the min-of-4 needs no bounds
  /// check. A sentinel sorts after every real entry.
  class QuadHeap {
   public:
    bool empty() const { return n_ == 0; }
    const Entry& top() const { return v_[0]; }

    void push(const Entry& e) {
      if (n_ + kPad >= v_.size()) [[unlikely]] grow();
      size_t i = n_++;
      while (i > 0) {
        const size_t parent = (i - 1) >> 2;
        if (!earlier(e, v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      }
      v_[i] = e;
    }

    /// Bottom-up pop: the hole left by the top walks down the smaller
    /// children to a leaf, then the displaced last entry sifts up from
    /// there. The last entry usually belongs near the bottom, so this
    /// skips the hard-to-predict compare against it on every level.
    void pop() {
      const Entry last = v_[--n_];
      v_[n_] = kSentinel;
      if (n_ == 0) return;
      size_t i = 0;
      for (;;) {
        const size_t first = i * 4 + 1;
        if (first >= n_) break;
        const Entry* c = &v_[first];
        const size_t a = earlier(c[1], c[0]) ? 1 : 0;
        const size_t b = earlier(c[3], c[2]) ? 3 : 2;
        const size_t best = first + (earlier(c[b], c[a]) ? b : a);
        v_[i] = v_[best];
        i = best;
      }
      while (i > 0) {
        const size_t parent = (i - 1) >> 2;
        if (!earlier(last, v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      }
      v_[i] = last;
    }

   private:
    // Out of line: push is inlined into every schedule_at instantiation,
    // and the vector growth path runs only at a new high-water mark.
    [[gnu::noinline]] void grow() { v_.push_back(kSentinel); }

    static constexpr size_t kPad = 3;
    static constexpr Entry kSentinel{INT64_MAX, ~uint64_t{0}};
    std::vector<Entry> v_ = std::vector<Entry>(kPad, kSentinel);
    size_t n_ = 0;
  };

  [[noreturn]] static void key_overflow(uint64_t seq, uint32_t idx);

  // First-chunk fast path: simulations rarely exceed kChunkSize live
  // events, and the branch predicts perfectly, replacing two dependent
  // pointer loads with one.
  Slot& slot(uint32_t idx) {
    if (idx < kChunkSize) [[likely]] return chunk0_[idx];
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  const Slot& slot(uint32_t idx) const {
    if (idx < kChunkSize) [[likely]] return chunk0_[idx];
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  static constexpr uint32_t kNoSlot = ~0u;

  uint32_t alloc_slot() {
    // One-deep cache in front of the free list: the dominant pattern is a
    // callback rescheduling itself, which reuses the slot just recycled
    // without touching the vector.
    if (slot_cache_ != kNoSlot) {
      const uint32_t idx = slot_cache_;
      slot_cache_ = kNoSlot;
      return idx;
    }
    if (!free_.empty()) {
      const uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    const uint32_t idx = next_slot_++;
    if ((idx >> kChunkShift) == chunks_.size()) {
      chunks_.emplace_back(new Slot[kChunkSize]);
      if (chunks_.size() == 1) chunk0_ = chunks_[0].get();
    }
    return idx;
  }

  template <typename F>
  void emplace_callback(Slot& s, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      s.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        s.destroy = nullptr;
      } else {
        s.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
      }
    } else {
      ++heap_cb_allocs_;
      Fn* obj = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(s.storage)) Fn*(obj);
      s.invoke = [](void* p) { (**static_cast<Fn**>(p))(); };
      s.destroy = [](void* p) { delete *static_cast<Fn**>(p); };
    }
  }

  void destroy_callback(Slot& s) {
    if (s.destroy != nullptr) {
      s.destroy(s.storage);
      s.destroy = nullptr;
    }
  }

  void recycle(Slot& s, uint32_t idx) {
    s.state = Slot::kFree;
    if (++s.gen == 0) s.gen = 1;  // keep ids nonzero after wrap
    if (slot_cache_ == kNoSlot) {
      slot_cache_ = idx;
    } else {
      free_.push_back(idx);
    }
  }

  /// Moves the earliest kNearWindow of far events into the empty near
  /// heap and advances the horizon past them. They leave the far heap in
  /// order, so each push into the near heap stops at its first compare.
  void refill() {
    const Time first = far_.top().time;
    horizon_ = first > INT64_MAX - kNearWindow ? INT64_MAX : first + kNearWindow;
    do {
      near_.push(far_.top());
      far_.pop();
    } while (!far_.empty() && far_.top().time < horizon_);
  }

  void fire(Slot& s, uint32_t idx, Time t) {
    now_ = t;
    // Mark fired before invoking so a self-cancel inside the callback
    // reports false (matches the previous map-erase-before-call behavior).
    s.state = Slot::kFiring;
    --live_;
    s.invoke(s.storage);
    destroy_callback(s);
    recycle(s, idx);
    ++executed_;
  }

  Time now_ = 0;
  uint64_t seq_ = 0;
  bool stopped_ = false;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  uint64_t heap_cb_allocs_ = 0;
  uint32_t next_slot_ = 0;
  uint32_t slot_cache_ = kNoSlot;
  Slot* chunk0_ = nullptr;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_;
  // Invariant: every near_ entry is earlier than horizon_ and every far_
  // entry is at or after it.
  Time horizon_ = 0;
  QuadHeap near_;
  QuadHeap far_;
};

}  // namespace hyperloop::sim
