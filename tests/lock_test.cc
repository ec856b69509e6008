#include "core/lock.h"

#include <gtest/gtest.h>

#include "core/hyperloop_group.h"
#include "core/server.h"

namespace hyperloop::core {
namespace {

struct LockFixture : ::testing::Test {
  Cluster cluster{[] {
    Cluster::Config c;
    c.num_servers = 4;
    c.server.cpu.num_cores = 8;
    return c;
  }()};
  RegionLayout layout = [] {
    RegionLayout l;
    l.region_size = 1 << 20;
    l.log_size = 64 << 10;
    l.num_locks = 32;
    return l;
  }();
  std::unique_ptr<HyperLoopGroup> group = [this] {
    HyperLoopGroup::Config gc;
    gc.region_size = layout.region_size;
    gc.ring_slots = 64;
    gc.max_inflight = 16;
    std::vector<Server*> reps = {&cluster.server(0), &cluster.server(1),
                                 &cluster.server(2)};
    return std::make_unique<HyperLoopGroup>(cluster.server(3), reps, gc);
  }();
  GroupLockManager locks{*group, layout, cluster.loop()};

  void run(sim::Duration d = sim::msec(200)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }

  uint64_t lock_word(size_t replica, uint32_t id) {
    uint64_t v = 0;
    group->replica_load(replica, layout.lock_offset(id), &v, 8);
    return v;
  }
  uint64_t reader_count(size_t replica, uint32_t id) {
    uint64_t v = 0;
    group->replica_load(replica, layout.reader_offset(id), &v, 8);
    return v;
  }
};

TEST_F(LockFixture, WrLockAcquiresOnAllReplicas) {
  bool got = false;
  locks.wr_lock(3, 111, [&](bool ok) { got = ok; });
  run();
  ASSERT_TRUE(got);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(lock_word(i, 3), 111u);
  EXPECT_EQ(locks.stats().wr_acquired, 1u);
}

TEST_F(LockFixture, WrUnlockReleasesEverywhere) {
  bool done = false;
  locks.wr_lock(3, 111, [&](bool) {
    locks.wr_unlock(3, 111, [&] { done = true; });
  });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(lock_word(i, 3), 0u);
}

TEST_F(LockFixture, SecondOwnerWaitsForRelease) {
  bool a = false, b = false;
  locks.wr_lock(5, 1, [&](bool ok) { a = ok; });
  locks.wr_lock(5, 2, [&](bool ok) { b = ok; });
  run(sim::msec(5));
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);  // still waiting
  EXPECT_GT(locks.stats().wr_conflicts, 0u);

  locks.wr_unlock(5, 1, [] {});
  run();
  EXPECT_TRUE(b);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(lock_word(i, 5), 2u);
}

TEST_F(LockFixture, MutualExclusionUnderContention) {
  // N logical owners hammer one lock; verify the critical section never
  // overlaps by checking a shared counter invariant.
  int in_critical = 0, max_in_critical = 0, completed = 0;
  const int kOwners = 8;
  for (uint64_t o = 1; o <= kOwners; ++o) {
    locks.wr_lock(7, o, [&, o](bool ok) {
      ASSERT_TRUE(ok);
      ++in_critical;
      max_in_critical = std::max(max_in_critical, in_critical);
      cluster.loop().schedule_after(sim::usec(50), [&, o] {
        --in_critical;
        locks.wr_unlock(7, o, [&] { ++completed; });
      });
    });
  }
  run(sim::seconds(2));
  EXPECT_EQ(completed, kOwners);
  EXPECT_EQ(max_in_critical, 1);
}

TEST_F(LockFixture, PartialAcquisitionIsUndone) {
  // Pre-poison replica 1's lock word (another coordinator's stale lock).
  const uint64_t stale = 99;
  const rdma::Addr base = group->replica_region_base(1);
  group->replica_server(1).mem().write(base + layout.lock_offset(9), &stale,
                                       8);
  bool result = true;
  GroupLockManager::Config quick;
  quick.max_attempts = 3;
  quick.retry_backoff = sim::usec(10);
  GroupLockManager impatient(*group, layout, cluster.loop(), quick);
  impatient.wr_lock(9, 5, [&](bool ok) { result = ok; });
  run();
  EXPECT_FALSE(result);  // could not acquire
  EXPECT_GT(impatient.stats().partial_undos, 0u);
  // Replicas 0 and 2 must have been rolled back to 0.
  EXPECT_EQ(lock_word(0, 9), 0u);
  EXPECT_EQ(lock_word(2, 9), 0u);
  EXPECT_EQ(lock_word(1, 9), 99u);
}

TEST_F(LockFixture, RdLockIncrementsOneReplicaOnly) {
  bool got = false;
  locks.rd_lock(2, 1, [&](bool ok) { got = ok; });
  run();
  ASSERT_TRUE(got);
  EXPECT_EQ(reader_count(0, 2), 0u);
  EXPECT_EQ(reader_count(1, 2), 1u);
  EXPECT_EQ(reader_count(2, 2), 0u);
  bool rel = false;
  locks.rd_unlock(2, 1, [&] { rel = true; });
  run();
  ASSERT_TRUE(rel);
  EXPECT_EQ(reader_count(1, 2), 0u);
}

TEST_F(LockFixture, UncontendedReadLockRoundTripCostsFourGcas) {
  // Check, +1, recheck; then one -1 whose first guess (1) is right.
  const uint64_t before = group->counters().gcas;
  bool got = false, rel = false;
  locks.rd_lock(12, 0, [&](bool ok) { got = ok; });
  run();
  ASSERT_TRUE(got);
  EXPECT_EQ(group->counters().gcas - before, 3u);
  locks.rd_unlock(12, 0, [&] { rel = true; });
  run();
  ASSERT_TRUE(rel);
  EXPECT_EQ(group->counters().gcas - before, 4u);
  EXPECT_EQ(reader_count(0, 12), 0u);
}

TEST_F(LockFixture, MultipleReadersCoexist) {
  int granted = 0;
  for (int i = 0; i < 5; ++i) {
    locks.rd_lock(4, 2, [&](bool ok) { granted += ok ? 1 : 0; });
  }
  run();
  EXPECT_EQ(granted, 5);
  EXPECT_EQ(reader_count(2, 4), 5u);
}

TEST_F(LockFixture, ReaderBlocksWriterUntilDrained) {
  bool reader = false, writer = false;
  locks.rd_lock(6, 0, [&](bool ok) { reader = ok; });
  run(sim::msec(5));
  ASSERT_TRUE(reader);

  locks.wr_lock(6, 42, [&](bool ok) { writer = ok; });
  run(sim::msec(5));
  EXPECT_FALSE(writer);  // writer word held, waiting for readers

  locks.rd_unlock(6, 0, [] {});
  run();
  EXPECT_TRUE(writer);
}

TEST_F(LockFixture, WriterBlocksNewReaders) {
  bool writer = false, reader = false;
  locks.wr_lock(8, 7, [&](bool ok) { writer = ok; });
  run(sim::msec(5));
  ASSERT_TRUE(writer);

  locks.rd_lock(8, 1, [&](bool ok) { reader = ok; });
  run(sim::msec(5));
  EXPECT_FALSE(reader);

  locks.wr_unlock(8, 7, [] {});
  run();
  EXPECT_TRUE(reader);
}

TEST_F(LockFixture, IndependentLocksDoNotInterfere) {
  bool a = false, b = false;
  locks.wr_lock(10, 1, [&](bool ok) { a = ok; });
  locks.wr_lock(11, 2, [&](bool ok) { b = ok; });
  run();
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
}

}  // namespace
}  // namespace hyperloop::core
