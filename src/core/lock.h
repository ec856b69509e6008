// Group locking (§5, "Locking and Isolation") built purely on gCAS.
//
// Each lock-table entry holds a writer word and a reader count (see
// RegionLayout). Write locks are *group* locks: a gCAS(0 -> owner) against
// every replica; on a partial acquisition (some replicas already held) the
// acquired subset is rolled back with a second gCAS whose execute map
// selects exactly the replicas that succeeded — the paper's undo flow.
// Read locks are per-replica (only the replica being read from
// participates) and coexist with writers via the classic rwlock protocol:
// readers increment the reader count while the writer word is clear;
// writers acquire the writer word on all replicas and then wait for reader
// counts to drain. An uncontended rd_lock + rd_unlock costs four gCAS
// round trips (check, +1, recheck, -1). DocStore's reads take no read
// lock: they read the writer word in the same doorbell as the document
// and retry while it is held (DESIGN.md "Read datapath").
//
// A gCAS(expected=0, desired=0) is used as a NIC-offloaded *read* of a
// lock word (it swaps nothing and returns the current value).
//
// Every multi-step acquisition (attempt/backoff/undo loops) runs as a
// small state machine over a pooled slot table: callbacks capture only
// [this, slot index], so they always fit a SmallFn's inline storage and
// the retry loops allocate nothing in steady state.
#pragma once

#include <cstdint>
#include <vector>

#include "core/group.h"
#include "core/region_layout.h"
#include "sim/event_loop.h"
#include "sim/small_fn.h"

namespace hyperloop::core {

class GroupLockManager {
 public:
  struct Config {
    sim::Duration retry_backoff = sim::usec(20);
    int max_attempts = 10000;
  };

  struct Stats {
    uint64_t wr_acquired = 0;
    uint64_t wr_conflicts = 0;  ///< attempts that found the lock held
    uint64_t partial_undos = 0; ///< partial acquisitions rolled back
    uint64_t rd_acquired = 0;
  };

  /// Inline capacity for lock completion callbacks (matches the WAL's).
  static constexpr size_t kCallbackCap = 64;
  using LockDone = sim::SmallFn<void(bool acquired), kCallbackCap>;
  using Done = sim::SmallFn<void(), kCallbackCap>;

  GroupLockManager(ReplicationGroup& group, RegionLayout layout,
                   sim::EventLoop& loop, Config cfg);
  GroupLockManager(ReplicationGroup& group, RegionLayout layout,
                   sim::EventLoop& loop)
      : GroupLockManager(group, layout, loop, Config()) {}

  /// Acquires the write lock `lock_id` for `owner` (non-zero) on every
  /// replica, retrying with backoff. done(false) after max_attempts.
  void wr_lock(uint32_t lock_id, uint64_t owner, LockDone done);

  /// Releases a held write lock.
  void wr_unlock(uint32_t lock_id, uint64_t owner, Done done);

  /// Acquires a read lock on one replica.
  void rd_lock(uint32_t lock_id, size_t replica, LockDone done);

  /// Releases a read lock on one replica.
  void rd_unlock(uint32_t lock_id, size_t replica, Done done);

  const Stats& stats() const { return stats_; }
  const Config& config() const { return cfg_; }

 private:
  /// One in-flight write-lock acquisition.
  struct WrOp {
    uint32_t lock_id = 0;
    uint64_t owner = 0;
    int attempts_left = 0;
    bool live = false;
    LockDone done;
  };

  /// One in-flight read-lock acquisition.
  struct RdOp {
    uint32_t lock_id = 0;
    size_t replica = 0;
    int attempts_left = 0;
    bool live = false;
    LockDone done;
  };

  /// One in-flight write-lock release (a single gCAS, but the caller's
  /// continuation can be a full-width Done — too wide for a CasDone
  /// capture, so it parks in a slot and the wire callback carries only
  /// [this, idx]).
  struct UnlockOp {
    bool live = false;
    Done done;
  };

  /// One in-flight CAS read-modify-write loop (reader count add).
  struct AddOp {
    uint64_t offset = 0;
    size_t replica = 0;
    int64_t delta = 0;
    uint64_t guess = 0;
    bool live = false;
    Done done;
  };

  void wr_attempt(uint32_t idx);
  void wr_retry(uint32_t idx);
  void wait_readers_drain(uint32_t idx);
  void wr_finish(uint32_t idx, bool acquired);

  void rd_attempt(uint32_t idx);
  void rd_retry(uint32_t idx);
  void rd_recheck(uint32_t idx);
  void rd_finish(uint32_t idx, bool acquired);

  void unlock_finish(uint32_t idx);

  /// Adds `delta` to the word at `offset` on one replica by CAS, first
  /// guessing the word holds `guess`.
  void cas_loop_add(uint64_t offset, size_t replica, int64_t delta,
                    uint64_t guess, Done done);
  void add_attempt(uint32_t idx);

  ExecMap all_replicas() const {
    return ExecMap::all(group_.group_size());
  }

  ReplicationGroup& group_;
  RegionLayout layout_;
  sim::EventLoop& loop_;
  Config cfg_;
  Stats stats_;

  // Slot pools (grow to high water, then recycle via the free lists).
  std::vector<WrOp> wr_ops_;
  std::vector<uint32_t> wr_free_;
  std::vector<RdOp> rd_ops_;
  std::vector<uint32_t> rd_free_;
  std::vector<UnlockOp> unlock_ops_;
  std::vector<uint32_t> unlock_free_;
  std::vector<AddOp> add_ops_;
  std::vector<uint32_t> add_free_;
};

}  // namespace hyperloop::core
