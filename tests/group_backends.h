// Shared test helper: builds every ReplicationGroup backend on one
// cluster with the same credit window, so backend-generic tests
// (conformance, golden digests) can be parameterized over them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fanout_group.h"
#include "core/hyperloop_group.h"
#include "core/naive_group.h"
#include "core/server.h"
#include "core/sharded_group.h"
#include "core/tcp_group.h"

namespace hyperloop::core::backends {

enum class Backend { kHyperLoop, kNaive, kFanout, kTcp, kSharded };

inline constexpr Backend kAllBackends[] = {Backend::kHyperLoop,
                                           Backend::kNaive, Backend::kFanout,
                                           Backend::kTcp, Backend::kSharded};

inline std::string backend_name(Backend b) {
  switch (b) {
    case Backend::kHyperLoop:
      return "HyperLoop";
    case Backend::kNaive:
      return "Naive";
    case Backend::kFanout:
      return "Fanout";
    case Backend::kTcp:
      return "Tcp";
    case Backend::kSharded:
      return "Sharded";
  }
  return "?";
}

inline constexpr uint64_t kRegion = 1 << 20;
inline constexpr uint32_t kMaxInflight = 16;
/// ShardedGroup splits the region into two range shards of this span.
inline constexpr uint64_t kShardSpan = kRegion / 2;

/// Servers 0..2 are replicas, 3 is the client; two NICs each so the
/// sharded backend puts its chains on distinct ports.
inline Cluster::Config backend_cluster_config() {
  Cluster::Config c;
  c.num_servers = 4;
  c.server.cpu.num_cores = 8;
  c.server.num_nics = 2;
  return c;
}

/// Builds `b` with client server 3 and replicas 0..2. `tcp_port` must be
/// distinct per TCP group on one cluster (a stopped group's listeners
/// stay registered).
inline std::unique_ptr<ReplicationGroup> make_backend(Cluster& cluster,
                                                      Backend b,
                                                      uint16_t tcp_port) {
  std::vector<Server*> reps = {&cluster.server(0), &cluster.server(1),
                               &cluster.server(2)};
  Server& client = cluster.server(3);
  auto hyperloop = [&](uint32_t nic_index) {
    HyperLoopGroup::Config gc;
    gc.region_size = kRegion;
    gc.ring_slots = 64;
    gc.max_inflight = kMaxInflight;
    gc.nic_index = nic_index;
    return std::make_unique<HyperLoopGroup>(client, reps, gc);
  };
  switch (b) {
    case Backend::kHyperLoop:
      return hyperloop(0);
    case Backend::kNaive: {
      NaiveRdmaGroup::Config gc;
      gc.region_size = kRegion;
      gc.mode = NaiveRdmaGroup::Mode::kEvent;
      gc.max_inflight = kMaxInflight;
      return std::make_unique<NaiveRdmaGroup>(client, reps, gc);
    }
    case Backend::kFanout: {
      FanoutGroup::Config gc;
      gc.region_size = kRegion;
      gc.ring_slots = 64;
      gc.max_inflight = kMaxInflight;
      return std::make_unique<FanoutGroup>(client, reps, gc);
    }
    case Backend::kTcp: {
      TcpReplicationGroup::Config gc;
      gc.region_size = kRegion;
      gc.max_inflight = kMaxInflight;
      gc.port = tcp_port;
      return std::make_unique<TcpReplicationGroup>(client, reps, gc);
    }
    case Backend::kSharded: {
      std::vector<std::unique_ptr<ReplicationGroup>> chains;
      chains.push_back(hyperloop(0));
      chains.push_back(hyperloop(1));
      return std::make_unique<ShardedGroup>(std::move(chains),
                                            ShardRouter::range(2, kShardSpan));
    }
  }
  return nullptr;
}

}  // namespace hyperloop::core::backends
