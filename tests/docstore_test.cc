#include "apps/docstore/docstore.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "apps/ycsb/driver.h"
#include "apps/ycsb/workload.h"
#include "core/hyperloop_group.h"
#include "core/server.h"
#include "core/sharded_reader.h"
#include "core/tcp_group.h"

namespace hyperloop::apps {
namespace {

using core::Cluster;
using core::HyperLoopGroup;
using core::RegionLayout;
using core::Server;

enum class Backend { kHyperLoop, kTcp };

class DocStoreTest : public ::testing::TestWithParam<Backend> {
 protected:
  DocStoreTest() {
    Cluster::Config cc;
    cc.num_servers = 4;
    cc.server.cpu.num_cores = 8;
    cc.server.nvm_size = 32u << 20;
    cluster_ = std::make_unique<Cluster>(cc);
    layout_.region_size = 8u << 20;
    layout_.log_size = 512 << 10;
    layout_.num_locks = 64;
    std::vector<Server*> reps = {&cluster_->server(0), &cluster_->server(1),
                                 &cluster_->server(2)};
    if (GetParam() == Backend::kHyperLoop) {
      HyperLoopGroup::Config gc;
      gc.region_size = layout_.region_size;
      gc.ring_slots = 128;
      gc.max_inflight = 32;
      group_ =
          std::make_unique<HyperLoopGroup>(cluster_->server(3), reps, gc);
    } else {
      core::TcpReplicationGroup::Config gc;
      gc.region_size = layout_.region_size;
      group_ = std::make_unique<core::TcpReplicationGroup>(
          cluster_->server(3), reps, gc);
    }
    DocStore::Config dc;
    dc.layout = layout_;
    dc.value_size = 256;
    store_ = std::make_unique<DocStore>(*group_, cluster_->server(3), dc);
  }

  void run(sim::Duration d = sim::msec(500)) {
    cluster_->loop().run_until(cluster_->loop().now() + d);
  }

  RegionLayout layout_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<core::ReplicationGroup> group_;
  std::unique_ptr<DocStore> store_;
};

TEST_P(DocStoreTest, InsertThenRead) {
  bool ins = false;
  store_->insert(11, WorkloadGenerator::value_for(11, 256),
                 [&](bool ok) { ins = ok; });
  run();
  ASSERT_TRUE(ins);
  bool ok = false;
  std::vector<uint8_t> v;
  store_->read(11, [&](bool o, std::vector<uint8_t> val) {
    ok = o;
    v = std::move(val);
  });
  run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(v, WorkloadGenerator::value_for(11, 256));
}

TEST_P(DocStoreTest, UpdateIsTransactionalOnAllReplicas) {
  bool upd = false;
  store_->insert(4, WorkloadGenerator::value_for(4, 256), [](bool) {});
  store_->update(4, WorkloadGenerator::value_for(44, 256),
                 [&](bool ok) { upd = ok; });
  run();
  ASSERT_TRUE(upd);
  // The document is applied (not just logged) on every replica.
  const uint64_t stride = 16 + 256;
  for (size_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> doc(stride);
    group_->replica_load(i, layout_.db_base() + 4 * stride, doc.data(),
                         static_cast<uint32_t>(stride));
    uint64_t key = 0;
    std::memcpy(&key, doc.data(), 8);
    EXPECT_EQ(key, 4u);
    EXPECT_EQ(std::vector<uint8_t>(doc.begin() + 16, doc.end()),
              WorkloadGenerator::value_for(44, 256));
  }
}

TEST_P(DocStoreTest, CommittedUpdateSurvivesCrashEverywhere) {
  bool upd = false;
  store_->update(9, WorkloadGenerator::value_for(99, 256),
                 [&](bool ok) { upd = ok; });
  run();
  ASSERT_TRUE(upd);
  for (size_t i = 0; i < 3; ++i) {
    Server& s = GetParam() == Backend::kHyperLoop
                    ? static_cast<HyperLoopGroup*>(group_.get())
                          ->replica_server(i)
                    : static_cast<core::TcpReplicationGroup*>(group_.get())
                          ->replica_server(i);
    s.nvm().crash();
    const uint64_t stride = 16 + 256;
    std::vector<uint8_t> doc(stride);
    group_->replica_load(i, layout_.db_base() + 9 * stride, doc.data(),
                         static_cast<uint32_t>(stride));
    EXPECT_EQ(std::vector<uint8_t>(doc.begin() + 16, doc.end()),
              WorkloadGenerator::value_for(99, 256))
        << "replica " << i;
  }
}

TEST_P(DocStoreTest, ReadMissingDocFails) {
  bool ok = true;
  store_->read(12345, [&](bool o, std::vector<uint8_t>) { ok = o; });
  run();
  EXPECT_FALSE(ok);
}

TEST_P(DocStoreTest, ScanFindsLoadedRange) {
  store_->bulk_load(200);
  run(sim::msec(200));
  bool ok = false;
  store_->scan(50, 20, [&](bool o) { ok = o; });
  run();
  EXPECT_TRUE(ok);
}

TEST_P(DocStoreTest, RmwRoundTrips) {
  store_->bulk_load(50);
  run(sim::msec(100));
  bool ok = false;
  store_->read_modify_write(20, WorkloadGenerator::value_for(777, 256),
                            [&](bool o) { ok = o; });
  run();
  ASSERT_TRUE(ok);
  std::vector<uint8_t> v;
  store_->read(20, [&](bool, std::vector<uint8_t> val) { v = std::move(val); });
  run();
  EXPECT_EQ(v, WorkloadGenerator::value_for(777, 256));
}

TEST_P(DocStoreTest, ConcurrentWritersOnSameStripeSerialize) {
  // Keys 0 and 64 share lock stripe 0 (64 stripes): both commit.
  int done = 0;
  store_->update(0, WorkloadGenerator::value_for(1, 256),
                 [&](bool ok) { done += ok ? 1 : 0; });
  store_->update(64, WorkloadGenerator::value_for(2, 256),
                 [&](bool ok) { done += ok ? 1 : 0; });
  run(sim::seconds(2));
  EXPECT_EQ(done, 2);
}

TEST_P(DocStoreTest, YcsbMixRunsClean) {
  store_->bulk_load(500);
  run(sim::msec(200));
  WorkloadSpec spec = WorkloadSpec::A();
  spec.value_size = 256;
  WorkloadGenerator gen(spec, 500, cluster_->fork_rng());
  YcsbDriver::Config dc;
  dc.threads = 4;
  dc.total_ops = 1000;
  YcsbDriver driver(cluster_->loop(), *store_, gen, dc);
  bool complete = false;
  driver.start([&] { complete = true; });
  run(sim::seconds(60));
  ASSERT_TRUE(complete);
  EXPECT_EQ(driver.failed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, DocStoreTest,
                         ::testing::Values(Backend::kHyperLoop, Backend::kTcp),
                         [](const auto& info) {
                           return info.param == Backend::kHyperLoop
                                      ? "HyperLoop"
                                      : "TcpNative";
                         });

// --- Validated lock-free replica reads ----------------------------------

// A K=1 ShardedReader whose target i is chain replica replicas[i], rotating
// reads round-robin.
std::unique_ptr<core::ShardedReader> single_shard_reader(
    HyperLoopGroup& group, Server& client, const std::vector<size_t>& replicas,
    uint32_t slot_size = 16384) {
  std::vector<core::RemoteReader::Target> targets;
  for (size_t r : replicas) {
    targets.push_back({&group.replica_server(r), group.replica_region_base(r),
                       group.replica_data_rkey(r)});
  }
  core::RemoteReader::Options opts;
  opts.slot_size = slot_size;
  opts.policy = core::RemoteReader::Policy::kRoundRobin;
  std::vector<std::unique_ptr<core::RemoteReader>> shards;
  shards.push_back(
      std::make_unique<core::RemoteReader>(client, std::move(targets), opts));
  return std::make_unique<core::ShardedReader>(
      std::move(shards), core::ShardRouter::range(1, group.region_size()));
}

// A 256-byte document whose first 8 bytes are `version`.
std::vector<uint8_t> versioned(uint64_t version) {
  std::vector<uint8_t> v(256, static_cast<uint8_t>(version));
  std::memcpy(v.data(), &version, 8);
  return v;
}

// A chain whose DocStore reads replicas through a K=1 reader.
class DocStoreReplicaRead : public ::testing::Test {
 protected:
  /// Builds a `chain`-replica HyperLoop chain and a store that reads
  /// through a reader whose target i is chain replica targets[i].
  void make_store(const std::vector<size_t>& targets, size_t chain = 3,
                  sim::Duration op_cpu = sim::usec(4)) {
    Cluster::Config cc;
    cc.num_servers = chain + 1;
    cluster_ = std::make_unique<Cluster>(cc);
    layout_.region_size = 4u << 20;
    layout_.log_size = 256 << 10;
    layout_.num_locks = 64;
    HyperLoopGroup::Config gc;
    gc.region_size = layout_.region_size;
    gc.ring_slots = 64;
    gc.max_inflight = 16;
    std::vector<Server*> reps;
    for (size_t i = 0; i < chain; ++i) reps.push_back(&cluster_->server(i));
    Server& client = cluster_->server(chain);
    group_ = std::make_unique<HyperLoopGroup>(client, reps, gc);
    DocStore::Config dc;
    dc.layout = layout_;
    dc.value_size = 256;
    dc.op_cpu = op_cpu;
    dc.read_from_replica = true;
    store_ = std::make_unique<DocStore>(*group_, client, dc);
    reader_ = single_shard_reader(*group_, client, targets);
    store_->set_sharded_reader(reader_.get());
  }

  void run(sim::Duration d = sim::msec(100)) {
    cluster_->loop().run_until(cluster_->loop().now() + d);
  }

  uint64_t lock_word(size_t replica, uint64_t key) {
    uint64_t w = 0;
    group_->replica_load(replica, layout_.lock_offset(key % layout_.num_locks),
                         &w, 8);
    return w;
  }

  RegionLayout layout_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<HyperLoopGroup> group_;
  std::unique_ptr<DocStore> store_;
  std::unique_ptr<core::ShardedReader> reader_;
};

TEST_F(DocStoreReplicaRead, ReadsFromTailReplica) {
  make_store({2});  // the reader's only target is replica 2

  bool ins = false;
  store_->insert(8, WorkloadGenerator::value_for(8, 256),
                 [&](bool ok) { ins = ok; });
  cluster_->loop().run_until(sim::msec(500));
  ASSERT_TRUE(ins);

  bool ok = false;
  std::vector<uint8_t> v;
  store_->read(8, [&](bool o, std::vector<uint8_t> val) {
    ok = o;
    v = std::move(val);
  });
  run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(v, WorkloadGenerator::value_for(8, 256));
  EXPECT_GT(reader_->shard(0).reads_issued(), 0u);
}

// One sequential writer of versions 1..kWrites of one key, and one reader
// issuing back-to-back reads of it until the writer is done.
struct RegisterRun {
  static constexpr uint64_t kKey = 5;
  static constexpr uint64_t kWrites = 200;
  static constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();

  struct Read {
    sim::Time start, end;
    uint64_t version;
  };

  RegisterRun(DocStore& s, sim::EventLoop& l) : store(s), loop(l) {}

  void write(uint64_t ver) {
    issued[ver] = loop.now();
    store.update(kKey, versioned(ver), [this, ver](bool ok) {
      if (!ok) ++failed;
      acked[ver] = loop.now();
      if (ver == kWrites) {
        writing = false;
        return;
      }
      // Vary the gap so reads land in every phase of the next write.
      loop.schedule_after(sim::usec(static_cast<int64_t>(ver % 4) * 10),
                          [this, ver] { write(ver + 1); });
    });
  }
  void read() {
    const sim::Time start = loop.now();
    store.read(kKey, [this, start](bool ok, std::vector<uint8_t> v) {
      if (!ok || v.size() < 8) {
        ++failed;
        return;
      }
      uint64_t ver = 0;
      std::memcpy(&ver, v.data(), 8);
      reads.push_back({start, loop.now(), ver});
      if (writing) read();
    });
  }

  DocStore& store;
  sim::EventLoop& loop;
  std::vector<sim::Time> issued = std::vector<sim::Time>(kWrites + 1, kNever);
  std::vector<sim::Time> acked = std::vector<sim::Time>(kWrites + 1, kNever);
  std::vector<Read> reads;
  int failed = 0;
  bool writing = true;
};

// One writer updates one key again and again; one reader issues
// back-to-back replica reads rotating over the reader's targets. Every read
// must return the write last acked before it started or one still in
// flight, and versions never go backward.
void check_register_linearizable(DocStore& store, sim::EventLoop& loop) {
  constexpr uint64_t kKey = RegisterRun::kKey;
  constexpr uint64_t kWrites = RegisterRun::kWrites;
  RegisterRun r(store, loop);

  bool ins = false;
  store.insert(kKey, versioned(0), [&](bool ok) { ins = ok; });
  loop.run_until(loop.now() + sim::msec(100));
  ASSERT_TRUE(ins);
  r.issued[0] = r.acked[0] = loop.now();
  r.write(1);
  r.read();
  loop.run_until(loop.now() + sim::seconds(1));
  ASSERT_FALSE(r.writing);
  ASSERT_EQ(r.failed, 0);
  ASSERT_GT(r.reads.size(), 300u);

  uint64_t prev = 0;
  uint64_t last_acked = 0;  // versions ack in order: one sequential writer
  for (size_t i = 0; i < r.reads.size(); ++i) {
    const RegisterRun::Read& rd = r.reads[i];
    while (last_acked < kWrites && r.acked[last_acked + 1] <= rd.start) {
      ++last_acked;
    }
    ASSERT_LE(rd.version, kWrites) << "read " << i;
    EXPECT_GE(rd.version, prev) << "read " << i << " went backward";
    EXPECT_GE(rd.version, last_acked) << "read " << i << " is stale";
    EXPECT_LT(r.issued[rd.version], rd.end)
        << "read " << i << " saw a write issued after it ended";
    prev = rd.version;
  }
  // The validation was exercised.
  EXPECT_GT(store.stats().read_retries, 0u);
  EXPECT_EQ(store.stats().read_failures, 0u);
}

TEST_F(DocStoreReplicaRead, SingleRegisterReadsAreLinearizable) {
  make_store({0, 1, 2});
  check_register_linearizable(*store_, cluster_->loop());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(reader_->shard(0).replica_frags(i), 0u) << "replica " << i;
  }
}

// The same check where replica lag is visible: on a 5-replica chain the
// apply reaches the tail four hops after the head, longer than a read
// round trip from a front end with no CPU cost. A read of the head that
// is followed by a read of the tail would then go backward if the tail's
// document were accepted without its writer word.
TEST_F(DocStoreReplicaRead, HeadThenTailReadsNeverGoBackward) {
  make_store({0, 4, 2}, /*chain=*/5, /*op_cpu=*/0);
  check_register_linearizable(*store_, cluster_->loop());
}

TEST_F(DocStoreReplicaRead, ReadDuringWriteRetriesThenSeesNewDocument) {
  make_store({0, 1, 2});
  constexpr uint64_t kKey = 9;
  bool ins = false;
  store_->insert(kKey, versioned(1), [&](bool ok) { ins = ok; });
  run();
  ASSERT_TRUE(ins);

  bool upd = false;
  store_->update(kKey, versioned(2), [&](bool ok) { upd = ok; });
  // Step until the writer holds the stripe on every replica.
  auto held = [&] {
    for (size_t i = 0; i < 3; ++i) {
      if (lock_word(i, kKey) == 0) return false;
    }
    return true;
  };
  for (int step = 0; step < 1000 && !held(); ++step) run(sim::usec(1));
  ASSERT_TRUE(held());
  ASSERT_FALSE(upd);

  bool ok = false;
  std::vector<uint8_t> v;
  store_->read(kKey, [&](bool o, std::vector<uint8_t> val) {
    ok = o;
    v = std::move(val);
  });
  run();
  ASSERT_TRUE(upd);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v, versioned(2));
  EXPECT_GT(store_->stats().read_retries, 0u);
  EXPECT_EQ(store_->stats().read_failures, 0u);
}

TEST_F(DocStoreReplicaRead, StripeHeldPastMaxAttemptsFails) {
  make_store({0, 1, 2});
  constexpr uint64_t kKey = 3;
  bool ins = false;
  store_->insert(kKey, versioned(1), [&](bool ok) { ins = ok; });
  run();
  ASSERT_TRUE(ins);
  // A stale writer word (a coordinator that never released) on every
  // replica.
  const uint64_t stale = 77;
  for (size_t i = 0; i < 3; ++i) {
    group_->replica_server(i).mem().write(
        group_->replica_region_base(i) +
            layout_.lock_offset(kKey % layout_.num_locks),
        &stale, 8);
  }

  bool called = false, ok = true;
  store_->read(kKey, [&](bool o, std::vector<uint8_t>) {
    called = true;
    ok = o;
  });
  const core::GroupLockManager::Config& lc = store_->locks().config();
  run(lc.retry_backoff * lc.max_attempts + sim::msec(100));
  ASSERT_TRUE(called) << "a held stripe must fail the read, not hang it";
  EXPECT_FALSE(ok);
  EXPECT_EQ(store_->stats().read_failures, 1u);
  EXPECT_EQ(store_->stats().read_retries,
            static_cast<uint64_t>(lc.max_attempts - 1));
}

TEST_F(DocStoreReplicaRead, DocumentLargerThanReaderSlotAborts) {
  make_store({0, 1, 2});
  DocStore::Config dc;
  dc.layout = layout_;
  dc.value_size = 2048;
  dc.read_from_replica = true;
  DocStore store(*group_, group_->client_server(), dc);
  auto reader =
      single_shard_reader(*group_, group_->client_server(), {0, 1, 2}, 1024);
  EXPECT_DEATH(store.set_sharded_reader(reader.get()), "does not fit one");
}

}  // namespace
}  // namespace hyperloop::apps
