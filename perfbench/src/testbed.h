// Workload definitions and the simulated testbed each one runs on: a
// 3-replica HyperLoop deployment plus one client machine, the store under
// test, and the set-up checks (memory fit, durable load barrier) that
// must pass before any op is measured.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/docstore/docstore.h"
#include "apps/kvstore/kvstore.h"
#include "apps/storage_engine.h"
#include "core/hyperloop_group.h"
#include "core/server.h"
#include "core/sharded_group.h"
#include "core/sharded_reader.h"

namespace perfbench {

namespace core = hyperloop::core;
namespace apps = hyperloop::apps;
namespace sim = hyperloop::sim;

enum class Engine { kKv, kDoc };
enum class WriteOp { kUpdate, kReadModifyWrite };

struct WorkloadSpec {
  std::string name;
  Engine engine = Engine::kKv;
  uint32_t shards = 1;           ///< HyperLoop chains (one NIC each)
  uint64_t slice_size = 0;       ///< region bytes per shard
  uint64_t log_size = 0;
  uint32_t num_locks = 64;
  uint64_t records = 0;
  uint32_t value_size = 1024;
  double read_frac = 0.5;        ///< the rest are writes of `write_op`
  WriteOp write_op = WriteOp::kUpdate;
  bool tenants = false;          ///< background tenants on every server
  bool replica_reads = false;    ///< DocStore reads via a ShardedReader
  double nominal_rate = 0;       ///< offered ops/s (simulated)
  double p99_limit_us = 0;       ///< latency limit for the rate ladder
  /// Ladder of offered rates, as multiples of nominal_rate.
  std::vector<double> ladder;
  /// Ops measured per second of --seconds, split between the nominal
  /// phase and each ladder rung (sized from this workload's simulator
  /// speed so a run lasts about --seconds of wall time).
  double nominal_ops_per_s = 0;
  double rung_ops_per_s = 0;
};

/// The three workloads, by name; nullptr if unknown.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// One fully set-up deployment. Destruction order matters: the reader and
/// store go before the groups they use, and the groups before the
/// cluster whose NICs they own QPs on.
struct Testbed {
  const WorkloadSpec* spec = nullptr;
  std::unique_ptr<core::Cluster> cluster;
  /// Owned chains (single-chain workloads) or the ShardedGroup owning
  /// them; `chains` lists the HyperLoop chains either way.
  std::unique_ptr<core::ReplicationGroup> group;
  std::vector<core::HyperLoopGroup*> chains;
  core::ShardedGroup* sharded = nullptr;
  std::unique_ptr<core::ShardedReader> reader;
  std::unique_ptr<apps::StorageEngine> store;
  apps::KvStore* kv = nullptr;
  apps::DocStore* doc = nullptr;
  /// What the store was handed: `group` itself, or a tracing wrapper.
  core::ReplicationGroup* store_group = nullptr;

  core::Server& client() { return cluster->server(cluster->size() - 1); }
  static constexpr size_t kReplicas = 3;

  ~Testbed();
};

/// Receives the real group and returns what the store should hold.
using GroupWrapper = std::function<core::ReplicationGroup&(
    sim::EventLoop&, core::ReplicationGroup&)>;

/// Builds the deployment, bulk-loads `spec.records` records and waits
/// until the load is durable on every replica of every chain. `wrap` may
/// be empty. Returns nullptr after printing the reason when the config
/// does not fit the servers' memory or the load barrier fails.
std::unique_ptr<Testbed> build_testbed(const WorkloadSpec& spec,
                                       uint64_t seed,
                                       const GroupWrapper& wrap);

/// Checks, after the load barrier, that every replica's region equals the
/// client's copy and is durable in NVM. Prints the first mismatch.
bool verify_load(Testbed& tb);

/// The layout of shard 0's slice (shard s is layout.shard_slice(s)).
core::RegionLayout slice_layout(const WorkloadSpec& spec);

/// Byte offset, within the group region, of `key`'s record slot
/// ([key u64][len u32][pad u32][value]) as both stores lay it out: keys
/// stripe k % shards, slot k / shards of the owning slice's DB area.
uint64_t record_offset(const WorkloadSpec& spec, uint64_t key);

}  // namespace perfbench
