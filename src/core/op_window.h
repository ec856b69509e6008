// The client-side op window every replication backend shares.
//
// A backend admits at most `max_inflight` ops at once; each admitted op
// owns one pending slot holding its completion callbacks until its ack
// arrives, and ops submitted while the window is full wait in a FIFO for
// a credit. Acks of one window arrive in FIFO order (chain order, or per
// source for fan-out), so live seqs form a narrow window and the slot
// table is direct-mapped by `seq & mask` with no collision; the claim
// assert guards that invariant. Parked ops live by value in a sim::Ring,
// so admitting, parking and replaying never allocate once the ring has
// grown to its high-water mark.
//
// A completion runs in this order, in every backend:
//
//   Slot* s = window.lookup(seq);   // nullptr: stale or duplicate ack
//   window.retire(*s);              // slot and credit are free again
//   ... move the callback out of *s and run it ...
//   if (stopped_) return;           // the callback may call stop()
//   window.replay(issue);           // a parked op takes the freed credit
//
// The credit is freed *before* the callback, so an op the callback
// submits is admitted at once; parked ops replay after it.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/group.h"
#include "sim/ring.h"

namespace hyperloop::core {

/// Per-slot state a backend adds to every pending slot (none by default).
struct NoSlotExtra {};

/// `Queued` is the backend's by-value form of one op; it must have `done`
/// and `cas_done` members. `Extra` is mixed into every pending slot.
template <typename Queued, typename Extra = NoSlotExtra>
class OpWindow {
 public:
  /// One in-flight op: write-like primitives complete through `done`,
  /// gCAS through `cas_done`.
  struct Slot : Extra {
    uint32_t seq = 0;
    bool live = false;
    Done done;
    CasDone cas_done;
  };

  /// `table_size` (rounded up to a power of two) must exceed the widest
  /// spread of live seqs the backend's ack order allows.
  OpWindow(uint32_t max_inflight, uint32_t table_size)
      : max_inflight_(max_inflight) {
    uint32_t n = 1;
    while (n < table_size) n <<= 1;
    table_.resize(n);
    mask_ = n - 1;
  }

  /// Takes a credit and returns true: the caller issues `op` now.
  /// Otherwise moves `op` to the back of the credit FIFO and returns
  /// false.
  bool admit(Queued& op) {
    if (inflight_ < max_inflight_) {
      ++inflight_;
      return true;
    }
    waiting_.push_back(std::move(op));
    return false;
  }

  /// Assigns the next seq, moves `op`'s callbacks into its slot and
  /// returns the seq.
  uint64_t claim(Queued& op) {
    const uint64_t seq = next_seq_++;
    Slot& s = table_[seq & mask_];
    assert(!s.live && "pending slot table wrapped past the live window");
    s.seq = static_cast<uint32_t>(seq);
    s.live = true;
    s.done = std::move(op.done);
    s.cas_done = std::move(op.cas_done);
    return seq;
  }

  /// The slot of a claimed seq (for the backend's Extra fields).
  Slot& slot(uint64_t seq) { return table_[seq & mask_]; }

  /// The live op an ack for `seq` completes, or nullptr when the ack is
  /// stale (its op already completed or was aborted).
  Slot* lookup(uint32_t seq) {
    Slot& s = table_[seq & mask_];
    return s.live && s.seq == seq ? &s : nullptr;
  }

  /// The op in `s` completed: frees its slot and credit. Move the
  /// callback out of `s` before running it.
  void retire(Slot& s) {
    s.live = false;
    --inflight_;
  }

  /// If a credit is free and an op is parked, takes the credit and passes
  /// the oldest parked op to `issue(Queued&)`.
  template <typename Issue>
  void replay(Issue&& issue) {
    if (waiting_.empty() || inflight_ >= max_inflight_) return;
    Queued next = std::move(waiting_.front());
    waiting_.pop_front();
    ++inflight_;
    issue(next);
  }

  /// Drops every in-flight and parked op without running its callbacks
  /// and returns how many were dropped.
  uint64_t abort_all() {
    uint64_t n = waiting_.size();
    for (Slot& s : table_) {
      if (!s.live) continue;
      s.live = false;
      s.done.reset();
      s.cas_done.reset();
      ++n;
    }
    waiting_.clear();
    inflight_ = 0;
    return n;
  }

 private:
  uint32_t max_inflight_;
  uint32_t inflight_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Slot> table_;
  uint32_t mask_ = 0;
  sim::Ring<Queued> waiting_;
};

}  // namespace hyperloop::core
