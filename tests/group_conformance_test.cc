// Backend conformance: the client-side contract every ReplicationGroup
// shares — a credit window of in-flight ops, a FIFO of ops parked for a
// credit, and a stop() that drops every callback — checked identically on
// HyperLoop, Naïve-RDMA (event mode), Fan-out, TCP and a two-chain
// ShardedGroup, all with max_inflight = 16.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "group_backends.h"

namespace hyperloop::core {
namespace {

using backends::Backend;
using backends::kMaxInflight;
using backends::kShardSpan;

constexpr int kOps = 40;

class GroupConformance : public ::testing::TestWithParam<Backend> {
 protected:
  Cluster cluster{backends::backend_cluster_config()};
  std::unique_ptr<ReplicationGroup> g =
      backends::make_backend(cluster, GetParam(), /*tcp_port=*/7100);

  /// Op i alternates between the sharded backend's two chains.
  static uint64_t spread_offset(int i) {
    return static_cast<uint64_t>(i % 2) * kShardSpan +
           static_cast<uint64_t>(i) * 64;
  }
};

TEST_P(GroupConformance, StopTwiceAbortsEveryOpWithoutCallbacks) {
  int fired = 0;
  for (int i = 0; i < kOps; ++i) {
    g->gwrite(spread_offset(i), 32, /*flush=*/true, [&fired] { ++fired; });
  }
  g->stop();
  g->stop();
  EXPECT_EQ(g->aborted_ops(), static_cast<uint64_t>(kOps));
  cluster.loop().run();  // returns: nothing re-arms after stop()
  EXPECT_EQ(cluster.loop().pending(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(g->aborted_ops(), static_cast<uint64_t>(kOps));
}

TEST_P(GroupConformance, StopFromInsideACompletionCallback) {
  int fired = 0;
  for (int i = 0; i < kOps; ++i) {
    g->gwrite(spread_offset(i), 32, /*flush=*/false, [this, &fired] {
      if (++fired == 3) g->stop();
    });
  }
  cluster.loop().run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(g->aborted_ops(), static_cast<uint64_t>(kOps - 3));
}

TEST_P(GroupConformance, ParkedWritesCompleteInSubmitOrder) {
  // Every op on the first shard, so even the sharded backend has one
  // FIFO chain to order them. The ops are all the same shape: the TCP
  // backend runs replica bursts on any free core, so a cheaper op may
  // overtake a dearer one there.
  constexpr int kN = 4 * kMaxInflight;
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) {
    g->gwrite(static_cast<uint64_t>(i) * 64, 16, /*flush=*/true,
              [&order, i] { order.push_back(i); });
  }
  cluster.loop().run_until(cluster.loop().now() + sim::msec(100));
  ASSERT_EQ(order.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(g->aborted_ops(), 0u);
}

TEST_P(GroupConformance, ParkedCasReturnsTheResultMap) {
  // Fill the window with writes (the shared window on Naive/Fanout/TCP)
  // and with gCASes (HyperLoop's per-primitive gCAS window), so the
  // checked gCAS is parked on every backend.
  for (uint32_t i = 0; i < kMaxInflight; ++i) {
    g->gwrite(4096 + 64 * i, 16, false, Done{});
  }
  int first_cas_ok = 0;
  for (uint32_t i = 0; i < kMaxInflight; ++i) {
    g->gcas(8 * i, 0, i + 1, ExecMap::all(3), [&](const CasResult& r) {
      if (r.size() == 3 && r[0] == 0 && r[1] == 0 && r[2] == 0) {
        ++first_cas_ok;
      }
    });
  }
  std::vector<uint64_t> result;
  g->gcas(0, /*expected=*/1, /*desired=*/77, ExecMap::one(0).set(2),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  cluster.loop().run_until(cluster.loop().now() + sim::msec(100));

  EXPECT_EQ(first_cas_ok, static_cast<int>(kMaxInflight));
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], 1u);
  EXPECT_EQ(result[1], 0u);  // excluded by the execute map
  EXPECT_EQ(result[2], 1u);
  const uint64_t want[3] = {77, 1, 77};
  for (size_t i = 0; i < 3; ++i) {
    uint64_t v = 0;
    g->replica_load(i, 0, &v, sizeof(v));
    EXPECT_EQ(v, want[i]) << "replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GroupConformance, ::testing::ValuesIn(backends::kAllBackends),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return backends::backend_name(info.param);
    });

}  // namespace
}  // namespace hyperloop::core
