// Figure 2: the motivating experiment. Native (kernel-TCP) replicated
// document stores on 3 servers, YCSB against every replica-set.
//
//  (a) Latency and context switches grow with the number of co-located
//      replica-sets (9 -> 27) at 16 cores per machine.
//  (b) With 18 replica-sets, latency and context switches *fall* as the
//      number of cores per machine grows (2 -> 16): the bottleneck is CPU
//      scheduling, not the network.
//
// Each replica-set is one DocStore over a TcpReplicationGroup whose
// primary (front end) runs on server (set % 3) and whose two backups run
// on the other two servers — the paper's MongoDB deployment shape. No
// artificial stress load: the co-located sets themselves are the tenants.
#include <cstdio>
#include <memory>

#include "apps/docstore/docstore.h"
#include "apps/ycsb/driver.h"
#include "bench/common.h"

namespace hyperloop::bench {
namespace {

using apps::DocStore;
using apps::WorkloadGenerator;
using apps::WorkloadSpec;
using apps::YcsbDriver;

struct Result {
  stats::Histogram lat;
  uint64_t context_switches = 0;
};

Result run_config(int replica_sets, int cores, uint64_t ops_per_set,
                  uint64_t records, uint64_t seed) {
  Cluster::Config cc;
  cc.num_servers = 3;
  cc.server = testbed_server(cores);
  cc.server.mem_capacity = 256u << 20;
  cc.server.nvm_size = 128u << 20;
  cc.seed = seed;
  Cluster cluster(cc);

  core::RegionLayout layout;
  layout.region_size = 2u << 20;
  layout.log_size = 512 << 10;
  layout.num_locks = 64;

  struct Set {
    std::unique_ptr<core::TcpReplicationGroup> group;
    std::unique_ptr<DocStore> store;
    std::unique_ptr<WorkloadGenerator> gen;
    std::unique_ptr<YcsbDriver> driver;
  };
  std::vector<Set> sets(static_cast<size_t>(replica_sets));
  int complete = 0;

  for (int j = 0; j < replica_sets; ++j) {
    Set& set = sets[static_cast<size_t>(j)];
    Server& primary = cluster.server(static_cast<size_t>(j % 3));
    std::vector<Server*> backups = {
        &cluster.server(static_cast<size_t>((j + 1) % 3)),
        &cluster.server(static_cast<size_t>((j + 2) % 3))};
    core::TcpReplicationGroup::Config gc;
    gc.region_size = layout.region_size;
    // MongoDB-weight replication work per message (oplog apply, journal).
    gc.per_message_cpu = sim::usec(20);
    set.group = std::make_unique<core::TcpReplicationGroup>(primary, backups,
                                                            gc);
    DocStore::Config dc;
    dc.layout = layout;
    dc.value_size = 1024;
    // MongoDB-weight front end: query parse/plan/marshal (§6.2 notes the
    // client software stack dominates what remains after offload).
    dc.op_cpu = sim::usec(50);
    set.store = std::make_unique<DocStore>(*set.group, primary, dc);
    set.store->bulk_load(records);

    WorkloadSpec spec = WorkloadSpec::A();
    spec.value_size = 1024;
    set.gen = std::make_unique<WorkloadGenerator>(spec, records,
                                                  cluster.fork_rng());
    YcsbDriver::Config drc;
    drc.threads = 6;
    drc.total_ops = ops_per_set;
    set.driver =
        std::make_unique<YcsbDriver>(cluster.loop(), *set.store, *set.gen, drc);
  }
  cluster.loop().run_until(cluster.loop().now() + sim::msec(200));

  const uint64_t ctx0 = cluster.server(0).sched().total_context_switches() +
                        cluster.server(1).sched().total_context_switches() +
                        cluster.server(2).sched().total_context_switches();
  const sim::Time t0 = cluster.loop().now();
  for (auto& set : sets) set.driver->start([&] { ++complete; });
  while (complete < replica_sets &&
         cluster.loop().now() < t0 + sim::seconds(1800)) {
    cluster.loop().run_until(cluster.loop().now() + sim::msec(200));
  }

  Result r;
  for (auto& set : sets) r.lat.merge(set.driver->writes());
  r.context_switches =
      cluster.server(0).sched().total_context_switches() +
      cluster.server(1).sched().total_context_switches() +
      cluster.server(2).sched().total_context_switches() - ctx0;
  if (complete < replica_sets) {
    std::fprintf(stderr, "(config %d sets / %d cores timed out: %d/%d)\n",
                 replica_sets, cores, complete, replica_sets);
  }
  return r;
}

void sweep_sets(uint64_t ops, uint64_t records) {
  std::printf(
      "=== Figure 2(a): latency vs number of replica-sets (16 cores) ===\n");
  stats::Table table({"replica-sets", "avg(ms)", "p95(ms)", "p99(ms)",
                      "ctx-switches", "ctx (norm)"});
  std::vector<Result> results;
  uint64_t max_ctx = 1;
  const std::vector<int> sweep = {9, 15, 21, 27};
  for (int sets : sweep) {
    results.push_back(run_config(sets, 16, ops, records, 42 + sets));
    max_ctx = std::max(max_ctx, results.back().context_switches);
  }
  for (size_t i = 0; i < sweep.size(); ++i) {
    const Result& r = results[i];
    table.add_row({std::to_string(sweep[i]),
                   stats::Table::num(r.lat.mean() / 1e6, 2),
                   stats::Table::num(r.lat.percentile(95) / 1e6, 2),
                   stats::Table::num(r.lat.percentile(99) / 1e6, 2),
                   std::to_string(r.context_switches),
                   stats::Table::num(double(r.context_switches) / max_ctx, 2)});
  }
  table.print();
  std::printf("\n");
}

void sweep_cores(uint64_t ops, uint64_t records) {
  std::printf(
      "=== Figure 2(b): latency vs cores per machine (18 replica-sets) "
      "===\n");
  stats::Table table({"cores", "avg(ms)", "p95(ms)", "p99(ms)",
                      "ctx-switches", "ctx (norm)"});
  std::vector<Result> results;
  uint64_t max_ctx = 1;
  const std::vector<int> sweep = {4, 8, 12, 16};
  for (int cores : sweep) {
    results.push_back(run_config(18, cores, ops, records, 99 + cores));
    max_ctx = std::max(max_ctx, results.back().context_switches);
  }
  for (size_t i = 0; i < sweep.size(); ++i) {
    const Result& r = results[i];
    table.add_row({std::to_string(sweep[i]),
                   stats::Table::num(r.lat.mean() / 1e6, 2),
                   stats::Table::num(r.lat.percentile(95) / 1e6, 2),
                   stats::Table::num(r.lat.percentile(99) / 1e6, 2),
                   std::to_string(r.context_switches),
                   stats::Table::num(double(r.context_switches) / max_ctx, 2)});
  }
  table.print();
}

}  // namespace
}  // namespace hyperloop::bench

int main(int argc, char** argv) {
  uint64_t ops = 400;
  uint64_t records = 800;
  if (argc > 1) ops = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) records = std::strtoull(argv[2], nullptr, 10);
  hyperloop::bench::sweep_sets(ops, records);
  hyperloop::bench::sweep_cores(ops, records);
  return 0;
}
