// Replicated document store — the MongoDB case study (§5.2).
//
// The store is split into a front end (query parsing + coordination,
// running as a process on the primary server) and a back end (the
// replicated region on the chain). Every write is a full ACID transaction
// through the TransactionManager: group write locks (gCAS), oplog append
// (gWRITE+gFLUSH), ExecuteAndAdvance (gMEMCPY+gFLUSH), unlock — exactly
// the §5.2 flow, with wrLock/wrUnlock surrounding ExecuteAndAdvance.
//
// Reads take no locks. By default they read the client's own copy. With
// read_from_replica and a ShardedReader attached, a read is one doorbell
// on the owning shard's reader carrying two READs to one replica: the
// document slot, then its stripe's write-lock word. The document is
// accepted only if that word reads 0 (no writer was mid-apply); otherwise
// the read backs off and retries on the lock manager's schedule, failing
// after max_attempts (DESIGN.md "Read datapath").
//
// Sharded mode (Config::shards > 1, DESIGN.md "Sharded datapath"): the
// keyspace is partitioned key % shards, each shard owning its own region
// slice with a full oplog + lock table + transaction manager of its own.
// Under a ShardedGroup, every shard's transactions (locks, oplog, apply)
// ride their own replication chain.
//
// Documents are fixed-stride slots in the DB area indexed by dense keys:
// [key u64][len u32][pad u32][body].
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/storage_engine.h"
#include "core/lock.h"
#include "core/remote_reader.h"
#include "core/server.h"
#include "core/sharded_reader.h"
#include "core/txn.h"
#include "core/wal.h"

namespace hyperloop::apps {

class DocStore : public StorageEngine {
 public:
  struct Config {
    /// With shards == 1: the whole region. With shards > 1: the layout of
    /// ONE slice (shard s uses layout.shard_slice(s)); the group's region
    /// must cover shards * layout.region_size bytes.
    core::RegionLayout layout;
    uint32_t shards = 1;
    uint32_t value_size = 1024;
    /// Front-end CPU per operation (parse, plan, marshal) — MongoDB's
    /// software stack cost, which the paper notes dominates what remains
    /// after offload.
    sim::Duration op_cpu = sim::usec(4);
    /// Serve reads and scans from a replica via one-sided RDMA (through
    /// the ShardedReader given to set_sharded_reader, K=1 for one shard)
    /// instead of the client's copy.
    bool read_from_replica = false;
    /// Oplog group-commit tuning (staged-window depth, latency clock);
    /// staged_capacity = 1 restores per-record issue semantics.
    core::ReplicatedWal::Options wal;
  };

  struct Stats {
    uint64_t read_retries = 0;   ///< replica reads that found the stripe locked
    uint64_t read_failures = 0;  ///< replica reads that gave up (max_attempts)
  };

  DocStore(core::ReplicationGroup& group, core::Server& client, Config cfg);

  /// Enables replica reads and scatter scans through a sharded reader
  /// (owned by caller). The reader's router must partition the region
  /// exactly like the store's shard slices. Works for any shard count.
  /// Aborts unless one document fits one bounce slot of every shard's
  /// reader: a single READ is atomic, a fragmented one could tear.
  void set_sharded_reader(core::ShardedReader* reader);

  // StorageEngine ---------------------------------------------------------
  void insert(uint64_t key, std::vector<uint8_t> value, Done done) override;
  void update(uint64_t key, std::vector<uint8_t> value, Done done) override;
  void read(uint64_t key, ReadDone done) override;
  void scan(uint64_t key, int count, Done done) override;
  void read_modify_write(uint64_t key, std::vector<uint8_t> value,
                         Done done) override;

  /// Control-path bulk load (pre-bench initialization): fills the DB area
  /// and replicates it in large chunks.
  void bulk_load(uint64_t n);

  core::ReplicatedWal& wal() { return *shards_[0].wal; }
  core::TransactionManager& txns() { return *shards_[0].txns; }
  core::GroupLockManager& locks() { return *shards_[0].locks; }
  core::ReplicatedWal& wal(size_t s) { return *shards_.at(s).wal; }
  core::TransactionManager& txns(size_t s) { return *shards_.at(s).txns; }
  core::GroupLockManager& locks(size_t s) { return *shards_.at(s).locks; }
  sim::ProcessId front_end_pid() const { return client_pid_; }
  const Stats& stats() const { return stats_; }

  /// Which shard owns `key` (key % shards).
  uint32_t shard_of(uint64_t key) const {
    return static_cast<uint32_t>(key % cfg_.shards);
  }

 private:
  struct Shard {
    core::RegionLayout layout;  ///< this shard's slice
    std::unique_ptr<core::ReplicatedWal> wal;
    std::unique_ptr<core::GroupLockManager> locks;
    std::unique_ptr<core::TransactionManager> txns;
  };

  uint64_t slot_stride() const { return 16 + cfg_.value_size; }
  /// DB-area offset of `key`'s slot within its owning shard's slice
  /// (keys stripe round-robin, so key k is local slot k / shards).
  uint64_t slot_offset(uint64_t key) const {
    return (key / cfg_.shards) * slot_stride();
  }
  uint32_t stripe(uint64_t key) const {
    return static_cast<uint32_t>((key / cfg_.shards) %
                                 cfg_.layout.num_locks);
  }
  std::vector<uint8_t> encode_doc(uint64_t key,
                                  const std::vector<uint8_t>& value) const;
  void write_doc(uint64_t key, std::vector<uint8_t> value, Done done);
  void local_read(uint64_t key, ReadDone done);
  /// One validated replica read; `attempts_left` counts this try.
  void replica_read(uint64_t key, int attempts_left, ReadDone done);
  void remote_scan(uint64_t key, int count, Done done);

  core::ReplicationGroup& group_;
  core::Server& client_;
  Config cfg_;
  std::vector<Shard> shards_;
  core::ShardedReader* sreader_ = nullptr;
  sim::ProcessId client_pid_;
  Stats stats_;
};

}  // namespace hyperloop::apps
