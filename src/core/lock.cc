#include "core/lock.h"

#include <cassert>

namespace hyperloop::core {
namespace {

template <typename Op>
uint32_t acquire_slot(std::vector<Op>& pool, std::vector<uint32_t>& free_list) {
  if (free_list.empty()) {
    pool.emplace_back();
    return static_cast<uint32_t>(pool.size() - 1);
  }
  const uint32_t idx = free_list.back();
  free_list.pop_back();
  return idx;
}

}  // namespace

GroupLockManager::GroupLockManager(ReplicationGroup& group,
                                   RegionLayout layout, sim::EventLoop& loop,
                                   Config cfg)
    : group_(group), layout_(layout), loop_(loop), cfg_(cfg) {}

void GroupLockManager::wr_lock(uint32_t lock_id, uint64_t owner,
                               LockDone done) {
  assert(owner != 0 && "owner id 0 means 'unlocked'");
  const uint32_t idx = acquire_slot(wr_ops_, wr_free_);
  WrOp& op = wr_ops_[idx];
  assert(!op.live);
  op.lock_id = lock_id;
  op.owner = owner;
  op.attempts_left = cfg_.max_attempts;
  op.live = true;
  op.done = std::move(done);
  wr_attempt(idx);
}

void GroupLockManager::wr_finish(uint32_t idx, bool acquired) {
  WrOp& op = wr_ops_[idx];
  LockDone done = std::move(op.done);
  op.live = false;
  wr_free_.push_back(idx);
  done(acquired);
}

void GroupLockManager::wr_attempt(uint32_t idx) {
  WrOp& op = wr_ops_[idx];
  if (op.attempts_left <= 0) {
    wr_finish(idx, false);
    return;
  }
  group_.gcas(
      layout_.lock_offset(op.lock_id), 0, op.owner, all_replicas(),
      [this, idx](const CasResult& result) {
        WrOp& op = wr_ops_[idx];
        bool all = true, any = false;
        for (uint64_t old : result) {
          if (old == 0) {
            any = true;
          } else {
            all = false;
          }
        }
        if (all) {
          ++stats_.wr_acquired;
          wait_readers_drain(idx);
          return;
        }
        ++stats_.wr_conflicts;
        if (any) {
          // Partial acquisition: undo exactly where we succeeded (§4.2).
          ++stats_.partial_undos;
          ExecMap undo = ExecMap::none();
          for (size_t i = 0; i < result.size(); ++i) {
            if (result[i] == 0) undo.set(i);
          }
          group_.gcas(layout_.lock_offset(op.lock_id), op.owner, 0, undo,
                      [this, idx](const CasResult&) { wr_retry(idx); });
        } else {
          wr_retry(idx);
        }
      });
}

void GroupLockManager::wr_retry(uint32_t idx) {
  loop_.schedule_after(cfg_.retry_backoff, [this, idx] {
    --wr_ops_[idx].attempts_left;
    wr_attempt(idx);
  });
}

void GroupLockManager::wait_readers_drain(uint32_t idx) {
  WrOp& op = wr_ops_[idx];
  if (op.attempts_left <= 0) {
    // Give up: release the writer word we hold, then fail the caller.
    group_.gcas(layout_.lock_offset(op.lock_id), op.owner, 0, all_replicas(),
                [this, idx](const CasResult&) { wr_finish(idx, false); });
    return;
  }
  // gCAS(0 -> 0) is a NIC-side read of every replica's reader count.
  group_.gcas(layout_.reader_offset(op.lock_id), 0, 0, all_replicas(),
              [this, idx](const CasResult& counts) {
                bool drained = true;
                for (uint64_t c : counts) drained = drained && c == 0;
                if (drained) {
                  wr_finish(idx, true);
                  return;
                }
                loop_.schedule_after(cfg_.retry_backoff, [this, idx] {
                  --wr_ops_[idx].attempts_left;
                  wait_readers_drain(idx);
                });
              });
}

void GroupLockManager::wr_unlock(uint32_t lock_id, uint64_t owner,
                                 Done done) {
  const uint32_t idx = acquire_slot(unlock_ops_, unlock_free_);
  UnlockOp& op = unlock_ops_[idx];
  assert(!op.live);
  op.live = true;
  op.done = std::move(done);
  group_.gcas(layout_.lock_offset(lock_id), owner, 0, all_replicas(),
              [this, idx](const CasResult&) { unlock_finish(idx); });
}

void GroupLockManager::unlock_finish(uint32_t idx) {
  UnlockOp& op = unlock_ops_[idx];
  Done done = std::move(op.done);
  op.live = false;
  unlock_free_.push_back(idx);
  if (done) done();
}

void GroupLockManager::rd_lock(uint32_t lock_id, size_t replica,
                               LockDone done) {
  const uint32_t idx = acquire_slot(rd_ops_, rd_free_);
  RdOp& op = rd_ops_[idx];
  assert(!op.live);
  op.lock_id = lock_id;
  op.replica = replica;
  op.attempts_left = cfg_.max_attempts;
  op.live = true;
  op.done = std::move(done);
  rd_attempt(idx);
}

void GroupLockManager::rd_finish(uint32_t idx, bool acquired) {
  RdOp& op = rd_ops_[idx];
  LockDone done = std::move(op.done);
  op.live = false;
  rd_free_.push_back(idx);
  done(acquired);
}

void GroupLockManager::rd_attempt(uint32_t idx) {
  RdOp& op = rd_ops_[idx];
  if (op.attempts_left <= 0) {
    rd_finish(idx, false);
    return;
  }
  // 1) Writer free on this replica?
  group_.gcas(layout_.lock_offset(op.lock_id), 0, 0,
              ExecMap::one(op.replica), [this, idx](const CasResult& w) {
                RdOp& op = rd_ops_[idx];
                if (w[op.replica] != 0) {
                  rd_retry(idx);
                  return;
                }
                // 2) Increment the reader count.
                cas_loop_add(layout_.reader_offset(op.lock_id), op.replica,
                             +1, /*guess=*/0,
                             [this, idx] { rd_recheck(idx); });
              });
}

void GroupLockManager::rd_recheck(uint32_t idx) {
  RdOp& op = rd_ops_[idx];
  // 3) Re-check the writer: if one slipped in, back out.
  group_.gcas(layout_.lock_offset(op.lock_id), 0, 0,
              ExecMap::one(op.replica), [this, idx](const CasResult& w2) {
                RdOp& op = rd_ops_[idx];
                if (w2[op.replica] == 0) {
                  ++stats_.rd_acquired;
                  rd_finish(idx, true);
                  return;
                }
                // Our own +1 is in the count, so it is at least 1.
                cas_loop_add(layout_.reader_offset(op.lock_id), op.replica,
                             -1, /*guess=*/1, [this, idx] { rd_retry(idx); });
              });
}

void GroupLockManager::rd_retry(uint32_t idx) {
  loop_.schedule_after(cfg_.retry_backoff, [this, idx] {
    --rd_ops_[idx].attempts_left;
    rd_attempt(idx);
  });
}

void GroupLockManager::rd_unlock(uint32_t lock_id, size_t replica,
                                 Done done) {
  // A holder's own +1 is in the count, so it is at least 1: guessing 1
  // lets an uncontended release finish in one gCAS.
  cas_loop_add(layout_.reader_offset(lock_id), replica, -1, /*guess=*/1,
               std::move(done));
}

void GroupLockManager::cas_loop_add(uint64_t offset, size_t replica,
                                    int64_t delta, uint64_t guess,
                                    Done done) {
  const uint32_t idx = acquire_slot(add_ops_, add_free_);
  AddOp& op = add_ops_[idx];
  assert(!op.live);
  op.offset = offset;
  op.replica = replica;
  op.delta = delta;
  op.guess = guess;
  op.live = true;
  op.done = std::move(done);
  add_attempt(idx);
}

void GroupLockManager::add_attempt(uint32_t idx) {
  AddOp& op = add_ops_[idx];
  const uint64_t desired =
      static_cast<uint64_t>(static_cast<int64_t>(op.guess) + op.delta);
  group_.gcas(op.offset, op.guess, desired, ExecMap::one(op.replica),
              [this, idx](const CasResult& r) {
                AddOp& op = add_ops_[idx];
                const uint64_t old = r[op.replica];
                if (old == op.guess) {
                  Done done = std::move(op.done);
                  op.live = false;
                  add_free_.push_back(idx);
                  if (done) done();
                  return;
                }
                op.guess = old;
                add_attempt(idx);
              });
}

}  // namespace hyperloop::core
