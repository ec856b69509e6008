// Golden digests: a 64-bit hash of everything a client can observe of one
// fixed workload on each backend — every op's completion time and order,
// every gCAS result map, the replicas' bytes, and the client NIC's work
// counters. The workload mixes gwrite/gwritev/gmemcpy/gcas/gflush and
// overflows the credit window, so parking and replay are in the hash.
//
// A second phase stops the group and builds a fresh one on the same
// cluster, which recycles the QP/CQ slots the teardown freed: its digest
// pins every effect the release order has on the simulation.
//
// The constants were recorded once; any change to them is a behaviour
// change of the backend and must be explained, never re-recorded
// silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "group_backends.h"

namespace hyperloop::core {
namespace {

using backends::Backend;
using backends::kShardSpan;

struct Digest {
  uint64_t h = 0xcbf29ce484222325ull;
  void mix(uint64_t v) {
    // splitmix64 finalizer over the running state, order-sensitive.
    uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    h = z ^ (z >> 31);
  }
};

constexpr int kOps = 60;

/// Runs the fixed op mix on `g` and returns its digest.
uint64_t run_workload(Cluster& cluster, ReplicationGroup& g) {
  Digest d;
  uint64_t cas_value[2] = {0, 0};  // last desired value per shard's word
  for (int i = 0; i < kOps; ++i) {
    const uint64_t base = static_cast<uint64_t>(i % 2) * kShardSpan;
    const uint64_t off = base + 4096 + static_cast<uint64_t>(i) * 256;
    uint8_t bytes[96];
    for (size_t k = 0; k < sizeof(bytes); ++k) {
      bytes[k] = static_cast<uint8_t>(i * 31 + k);
    }
    auto done = [&cluster, &d, i] {
      d.mix(static_cast<uint64_t>(i));
      d.mix(cluster.loop().now());
    };
    switch (i % 5) {
      case 0:
        g.client_store(off, bytes, 64 + i % 32);
        g.gwrite(off, 64 + i % 32, /*flush=*/i % 2 == 0, done);
        break;
      case 1: {
        g.client_store(off, bytes, 96);
        ExtentVec v{{off, 32}, {off + 64, 16}, {off + 128, 8}};
        g.gwritev(v, /*flush=*/true, done);
        break;
      }
      case 2:
        g.gmemcpy(off - 256, off + 128, 48, /*flush=*/i % 4 == 2, done);
        break;
      case 3: {
        uint64_t& word = cas_value[i % 2];
        const uint64_t desired = static_cast<uint64_t>(i) * 1000 + 7;
        const ExecMap exec = i % 3 == 0 ? ExecMap::all(3) : ExecMap::one(0).set(2);
        // Every other gCAS expects a stale value and fails on purpose.
        const uint64_t expected = i % 4 == 3 ? word : word + 1;
        if (i % 4 == 3 && exec == ExecMap::all(3)) word = desired;
        g.gcas(base, expected, desired, exec,
               [&cluster, &d, i](const CasResult& r) {
                 d.mix(static_cast<uint64_t>(i));
                 d.mix(cluster.loop().now());
                 for (uint64_t v : r) d.mix(v);
               });
        break;
      }
      case 4:
        g.gflush(done);
        break;
    }
  }
  cluster.loop().run_until(cluster.loop().now() + sim::msec(50));

  for (size_t r = 0; r < g.group_size(); ++r) {
    for (uint64_t base : {uint64_t{0}, kShardSpan}) {
      std::vector<uint64_t> words((kOps + 1) * 256 / 8);
      g.replica_load(r, base + 4096, words.data(),
                     static_cast<uint32_t>(words.size() * 8));
      for (uint64_t w : words) d.mix(w);
      uint64_t cas = 0;
      g.replica_load(r, base, &cas, sizeof(cas));
      d.mix(cas);
    }
  }
  Server& client = cluster.server(3);
  for (size_t n = 0; n < client.num_nics(); ++n) {
    const rdma::Nic::Counters& c = client.nic(n).counters();
    d.mix(c.wqes_posted);
    d.mix(c.doorbells);
    d.mix(c.packets_tx);
    d.mix(c.bytes_tx);
  }
  return d.h;
}

struct Golden {
  Backend backend;
  uint64_t first;       ///< digest of the first group
  uint64_t after_stop;  ///< digest of a second group built after stop()
};

class BackendGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(BackendGolden, DigestsMatchTheRecordedValues) {
  const Golden want = GetParam();
  Cluster cluster{backends::backend_cluster_config()};

  auto g = backends::make_backend(cluster, want.backend, /*tcp_port=*/7200);
  cluster.loop().run_until(sim::msec(1));
  const uint64_t first = run_workload(cluster, *g);
  g->stop();
  EXPECT_EQ(g->aborted_ops(), 0u);
  cluster.loop().run_until(cluster.loop().now() + sim::msec(1));

  auto g2 = backends::make_backend(cluster, want.backend, /*tcp_port=*/7201);
  cluster.loop().run_until(cluster.loop().now() + sim::msec(1));
  const uint64_t after_stop = run_workload(cluster, *g2);

  std::printf("%s digests: first=0x%016llxull after_stop=0x%016llxull\n",
              backends::backend_name(want.backend).c_str(),
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(after_stop));
  EXPECT_EQ(first, want.first);
  EXPECT_EQ(after_stop, want.after_stop);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendGolden,
    ::testing::Values(
        Golden{Backend::kHyperLoop, 0xc1720bd45aadc1f0ull,
               0x15e0e73ad4300ae3ull},
        Golden{Backend::kNaive, 0x9995df62de2601e6ull, 0xcfaf3571a6212128ull},
        Golden{Backend::kFanout, 0xdedf0654b53a108bull,
               0x99d220ad848e0979ull},
        Golden{Backend::kTcp, 0x5e6609d57e435e15ull, 0xb94fa26dad6d6ca3ull},
        Golden{Backend::kSharded, 0x2bc2c1c42a625b0dull,
               0xa360724e0801f266ull}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return backends::backend_name(info.param.backend);
    });

}  // namespace
}  // namespace hyperloop::core
