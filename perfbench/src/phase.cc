#include "phase.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "alloc_count.h"
#include "apps/ycsb/workload.h"
#include "core/wal.h"
#include "gauge.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Simulated-time granularity at which the phase checks for completion
// and for the wall-clock guard.
constexpr sim::Duration kSlice = sim::usec(100);
// Background work (checkpoints, log execution) settles during the drain.
constexpr sim::Duration kDrain = sim::msec(2);
// Windows of the offered span over which the simulator's speed is taken;
// each holds about 0.5% of the phase's ops (0.1 s of wall time on doc-f).
constexpr size_t kWindows = 200;

using Clock = std::chrono::steady_clock;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

class PhaseRun {
 public:
  PhaseRun(Testbed& tb, const PhaseParams& p, Tracer* tracer)
      : tb_(tb), spec_(*tb.spec), p_(p), tracer_(tracer),
        loop_(tb.cluster->loop()), last_acked_(spec_.records, kBulk) {}

  PhaseResult run();

 private:
  void generate();
  void fire(uint64_t i);
  void on_write(uint64_t i, bool ok);
  void on_read(uint64_t i, bool ok, const std::vector<uint8_t>& v);
  bool read_allowed(uint64_t i, const std::vector<uint8_t>& v) const;
  void finish(uint64_t i, bool ok);
  /// True if `w` names a write to `key` whose acknowledgement was never
  /// seen (failed, in flight, or unfinished when the phase closed).
  bool unacked_write(uint64_t key, uint64_t w) const;
  uint64_t check_durability();

  Testbed& tb_;
  const WorkloadSpec& spec_;
  PhaseParams p_;
  Tracer* tracer_;
  sim::EventLoop& loop_;
  std::vector<OpRecord> ops_;
  std::vector<uint64_t> last_acked_;
  uint64_t finished_ = 0;
  uint64_t bad_values_ = 0;
  sim::Time last_done_ = 0;
  bool closed_ = false;
};

// The op mix is exact, a shuffled deck holding round(read_frac x N)
// reads, so a 50/50 mix splits its median between the two kinds every
// time instead of landing on whichever kind happened to be drawn more.
void PhaseRun::generate() {
  Rng rng(p_.seed);
  const ScrambledZipfian zipf(spec_.records);
  ops_.resize(p_.ops);
  const auto reads = static_cast<uint64_t>(
      std::llround(spec_.read_frac * static_cast<double>(p_.ops)));
  const OpKind write = spec_.write_op == WriteOp::kUpdate
                           ? OpKind::kUpdate
                           : OpKind::kReadModifyWrite;
  for (uint64_t i = 0; i < p_.ops; ++i) {
    ops_[i].kind = i < reads ? OpKind::kRead : write;
  }
  for (uint64_t i = p_.ops; i > 1; --i) {
    std::swap(ops_[i - 1].kind, ops_[rng.next() % i].kind);
  }
  double t = static_cast<double>(loop_.now()) + 1000.0;
  for (OpRecord& op : ops_) {
    t += poisson_gap_ns(rng, p_.rate);
    op.arrival = t;
    op.due = static_cast<sim::Time>(std::ceil(t));
    op.key = zipf.next(rng);
  }
}

void PhaseRun::fire(uint64_t i) {
  if (i + 1 < ops_.size()) {
    loop_.schedule_at(ops_[i + 1].due, [this, i] { fire(i + 1); });
  }
  OpRecord& op = ops_[i];
  op.submitted = true;
  apps::StorageEngine& store = *tb_.store;
  if (tracer_) tracer_->push(Tracer::kEngine);
  switch (op.kind) {
    case OpKind::kRead:
      op.acked_at_submit = last_acked_[op.key];
      store.read(op.key, [this, i](bool ok, std::vector<uint8_t> v) {
        on_read(i, ok, v);
      });
      break;
    case OpKind::kUpdate:
      store.update(op.key, make_value(spec_.value_size, op.key, i),
                   [this, i](bool ok) { on_write(i, ok); });
      break;
    case OpKind::kReadModifyWrite:
      store.read_modify_write(op.key, make_value(spec_.value_size, op.key, i),
                              [this, i](bool ok) { on_write(i, ok); });
      break;
  }
  if (tracer_) tracer_->pop();
}

void PhaseRun::finish(uint64_t i, bool ok) {
  OpRecord& op = ops_[i];
  op.done = loop_.now();
  op.ok = ok;
  last_done_ = op.done;
  ++finished_;
}

void PhaseRun::on_write(uint64_t i, bool ok) {
  if (closed_) return;
  finish(i, ok);
  if (ok) last_acked_[ops_[i].key] = i;
}

void PhaseRun::on_read(uint64_t i, bool ok, const std::vector<uint8_t>& v) {
  if (closed_) return;
  finish(i, ok);
  if (ok && !read_allowed(i, v)) {
    if (bad_values_ < 5) {
      std::fprintf(stderr, "value check failed: read op %llu of key %llu\n",
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(ops_[i].key));
    }
    ++bad_values_;
  }
}

bool PhaseRun::unacked_write(uint64_t key, uint64_t w) const {
  if (w >= ops_.size()) return false;
  const OpRecord& op = ops_[w];
  return op.kind != OpKind::kRead && op.key == key && op.submitted &&
         !(op.done >= 0 && op.ok);
}

// A read may return the write acknowledged last before it was submitted,
// or any write to the key that was still unacknowledged at that moment
// and has been submitted since (it may land while the read is in flight).
bool PhaseRun::read_allowed(uint64_t i, const std::vector<uint8_t>& v) const {
  const OpRecord& rd = ops_[i];
  uint64_t key = 0, w = 0;
  if (!decode_value(v.data(), v.size(), &key, &w)) {
    return rd.acked_at_submit == kBulk &&
           v == apps::WorkloadGenerator::value_for(rd.key, spec_.value_size);
  }
  if (key != rd.key || w >= ops_.size()) return false;
  if (w == rd.acked_at_submit) return true;
  const OpRecord& wr = ops_[w];
  return wr.kind != OpKind::kRead && wr.key == rd.key && wr.submitted &&
         (wr.done < 0 || wr.done >= rd.due);
}

// Power-fails every replica's NVM, replays each log segment from the
// durable image, and requires every key's record to hold its last
// acknowledged write (or a write whose ack was never seen).
uint64_t PhaseRun::check_durability() {
  core::ReplicationGroup& g = *tb_.group;
  for (size_t r = 0; r < Testbed::kReplicas; ++r) {
    tb_.cluster->server(r).nvm().crash();
  }
  const uint64_t region = spec_.slice_size * spec_.shards;
  const uint64_t stride = 16 + uint64_t{spec_.value_size};
  std::vector<uint8_t> img(region);
  uint64_t lost = 0;
  for (size_t r = 0; r < g.group_size(); ++r) {
    for (uint32_t s = 0; s < spec_.shards; ++s) {
      const uint64_t base = uint64_t{s} * spec_.slice_size;
      g.replica_load(r, base, img.data() + base,
                     static_cast<uint32_t>(spec_.slice_size));
    }
    for (uint32_t s = 0; s < spec_.shards; ++s) {
      core::ReplicatedWal::replay(
          slice_layout(spec_).shard_slice(s),
          [&](uint64_t off, void* dst, uint64_t len) {
            if (off <= region && len <= region - off) {
              std::memcpy(dst, img.data() + off, len);
            } else {
              std::memset(dst, 0, len);
            }
          },
          [&](uint64_t off, const void* src, uint64_t len) {
            if (off <= region && len <= region - off) {
              std::memcpy(img.data() + off, src, len);
            }
          });
    }
    for (uint64_t k = 0; k < spec_.records; ++k) {
      const uint8_t* slot = img.data() + record_offset(spec_, k);
      uint64_t skey = 0;
      uint32_t len = 0;
      std::memcpy(&skey, slot, 8);
      std::memcpy(&len, slot + 8, 4);
      bool good = skey == k && len == spec_.value_size &&
                  16 + uint64_t{len} <= stride;
      if (good) {
        uint64_t vkey = 0, w = 0;
        if (decode_value(slot + 16, len, &vkey, &w)) {
          good = vkey == k && (w == last_acked_[k] || unacked_write(k, w));
        } else {
          const auto bulk =
              apps::WorkloadGenerator::value_for(k, spec_.value_size);
          good = last_acked_[k] == kBulk &&
                 std::memcmp(slot + 16, bulk.data(), len) == 0;
        }
      }
      if (!good) {
        if (lost < 5) {
          std::fprintf(stderr,
                       "durability check failed: replica %zu key %llu does "
                       "not hold its last acknowledged write after crash + "
                       "replay\n",
                       r, static_cast<unsigned long long>(k));
        }
        ++lost;
      }
    }
  }
  return lost;
}

PhaseResult PhaseRun::run() {
  PhaseResult res;
  generate();
  res.attempted = ops_.size();
  if (ops_.empty()) return res;

  const sim::Duration allowance = std::max<sim::Duration>(
      sim::msec(2),
      static_cast<sim::Duration>(20 * spec_.p99_limit_us * 1e3));
  const sim::Time deadline = ops_.back().due + allowance;
  const Counters before = snapshot(tb_);
  loop_.schedule_at(ops_[0].due, [this] { fire(0); });

  const uint64_t events0 = loop_.executed();
  const HeapCount heap0 = heap_count();
  if (tracer_) tracer_->start_wall();
  Clock::time_point w0 = Clock::now();
  Clock::time_point w_end = w0;
  double run_s = 0;
  // Simulator speed per window of the offered span, each window followed
  // by a reading of the host's speed when the phase has a gauge.
  const double span = double(ops_.back().due - ops_[0].due);
  double mark_wall = 0;
  uint64_t mark_done = 0;
  auto close_window = [&](double wall) {
    if (wall > mark_wall && finished_ > mark_done) {
      res.window_rates.push_back(double(finished_ - mark_done) /
                                 (wall - mark_wall));
      if (p_.gauge) {
        const Clock::time_point g0 = Clock::now();
        res.window_gauge_s.push_back(p_.gauge->measure());
        w0 += Clock::now() - g0;
      }
    }
    mark_wall = wall;
    mark_done = finished_;
  };
  while (finished_ < ops_.size() && loop_.now() < deadline) {
    if (secs(Clock::now() - w0) > p_.wall_guard_s) {
      res.wall_guard_hit = true;
      break;
    }
    const sim::Time next = std::min(deadline, loop_.now() + kSlice);
    if (tracer_) tracer_->push(Tracer::kLoop);
    const Clock::time_point r0 = Clock::now();
    loop_.run_until(next);
    w_end = Clock::now();
    if (tracer_) tracer_->pop();
    run_s += secs(w_end - r0);
    const size_t w = res.window_rates.size() + 1;
    if (w < kWindows &&
        double(loop_.now() - ops_[0].due) >= span * double(w) / kWindows) {
      close_window(secs(w_end - w0));
    }
  }
  res.wall_s = secs(w_end - w0);
  close_window(res.wall_s);
  if (tracer_) tracer_->stop_wall();
  const HeapCount heap1 = heap_count();
  res.events = loop_.executed() - events0;
  closed_ = true;
  res.run_until_wall_s = run_s;
  res.heap_allocs = heap1.allocs - heap0.allocs;
  res.heap_bytes = heap1.bytes - heap0.bytes;
  res.sim_elapsed = std::max<sim::Duration>(last_done_ - ops_[0].due, 1);
  res.offered_span = std::max<sim::Duration>(ops_.back().due - ops_[0].due, 1);

  if (!res.wall_guard_hit) loop_.run_until(loop_.now() + kDrain);
  const Counters after = snapshot(tb_);
  for (size_t k = 0; k < after.v.size(); ++k) {
    res.delta.v.emplace_back(after.v[k].first,
                             after.v[k].second - before.v[k].second);
  }
  for (size_t r = 0; r < Testbed::kReplicas; ++r) {
    res.dirty_kb_after_drain +=
        double(tb_.cluster->server(r).nvm().dirty_bytes()) / 1024.0;
  }

  for (const OpRecord& op : ops_) {
    const bool good = op.done >= 0 && op.ok;
    const double lat = good ? double(op.done) - op.arrival : kInf;
    if (good) {
      ++res.completed;
    } else {
      ++res.failed;
    }
    res.all.push_back(lat);
    (op.kind == OpKind::kRead ? res.reads : res.writes).push_back(lat);
  }
  res.bad_values = bad_values_;
  res.lost_writes = res.wall_guard_hit ? 0 : check_durability();
  if (tracer_) res.ops = ops_;
  return res;
}

}  // namespace

double Counters::get(const std::string& name) const {
  for (const auto& [k, val] : v) {
    if (k == name) return val;
  }
  return 0.0;
}

Counters snapshot(Testbed& tb) {
  Counters c;
  auto put = [&c](std::string k, double val) {
    c.v.emplace_back(std::move(k), val);
  };
  core::Cluster& cl = *tb.cluster;
  put("sim_now", double(cl.loop().now()));
  put("events", double(cl.loop().executed()));
  put("cb_heap_allocs", double(cl.loop().callback_heap_allocs()));
  double switches = 0;
  for (size_t s = 0; s < cl.size(); ++s) {
    switches += double(cl.server(s).sched().total_context_switches());
  }
  put("ctx_switches", switches);
  core::Server& client = tb.client();
  put("frontend_cpu_ns",
      tb.doc ? double(client.sched().stats(tb.doc->front_end_pid()).cpu_time)
             : double(client.sched().total_busy()));
  double rep_cpu = 0;
  for (core::HyperLoopGroup* ch : tb.chains) {
    for (size_t i = 0; i < ch->group_size(); ++i) {
      rep_cpu += double(ch->replica_cpu_time(i));
    }
  }
  put("replica_cpu_ns", rep_cpu);
  put("kv_checkpoints", tb.kv ? double(tb.kv->checkpoints()) : 0.0);

  core::ReplicatedWal::Stats ws;
  core::GroupLockManager::Stats ls;
  core::TransactionManager::Stats ts;
  for (uint32_t s = 0; s < tb.spec->shards; ++s) {
    const core::ReplicatedWal::Stats& w =
        tb.kv ? tb.kv->wal(s).stats() : tb.doc->wal(s).stats();
    ws.records_appended += w.records_appended;
    ws.records_executed += w.records_executed;
    ws.append_failures += w.append_failures;
    ws.gwritev_batches += w.gwritev_batches;
    ws.exec_batches += w.exec_batches;
    if (tb.doc) {
      const auto& l = tb.doc->locks(s).stats();
      ls.wr_acquired += l.wr_acquired;
      ls.wr_conflicts += l.wr_conflicts;
      ls.partial_undos += l.partial_undos;
      ls.rd_acquired += l.rd_acquired;
      ts.committed += tb.doc->txns(s).stats().committed;
      ts.aborted += tb.doc->txns(s).stats().aborted;
    }
  }
  put("wal.records_appended", double(ws.records_appended));
  put("wal.records_executed", double(ws.records_executed));
  put("wal.append_failures", double(ws.append_failures));
  put("wal.gwritev_batches", double(ws.gwritev_batches));
  put("wal.exec_batches", double(ws.exec_batches));
  put("lock.wr_acquired", double(ls.wr_acquired));
  put("lock.wr_conflicts", double(ls.wr_conflicts));
  put("lock.partial_undos", double(ls.partial_undos));
  put("lock.rd_acquired", double(ls.rd_acquired));
  put("txn.committed", double(ts.committed));
  put("txn.aborted", double(ts.aborted));

  core::HyperLoopGroup::OpCounters gc;
  for (core::HyperLoopGroup* ch : tb.chains) {
    const auto& o = ch->counters();
    gc.gwrites += o.gwrites;
    gc.gwritevs += o.gwritevs;
    gc.gwritev_extents += o.gwritev_extents;
    gc.gmemcpys += o.gmemcpys;
    gc.gcas += o.gcas;
    gc.gflushes += o.gflushes;
    gc.bytes_replicated += o.bytes_replicated;
  }
  put("group.gwrites", double(gc.gwrites));
  put("group.gwritevs", double(gc.gwritevs));
  put("group.gwritev_extents", double(gc.gwritev_extents));
  put("group.gmemcpys", double(gc.gmemcpys));
  put("group.gcas", double(gc.gcas));
  put("group.gflushes", double(gc.gflushes));
  put("group.bytes_replicated", double(gc.bytes_replicated));
  for (uint32_t s = 0; s < tb.spec->shards; ++s) {
    put("group.shard_ops." + std::to_string(s),
        tb.sharded ? double(tb.sharded->shard_stats(s).ops) : 0.0);
  }

  double frags = 0;
  if (tb.reader) {
    for (uint32_t s = 0; s < tb.reader->shards(); ++s) {
      frags += double(tb.reader->shard(s).stats().frags_issued);
    }
  }
  put("reader.reads", tb.reader ? double(tb.reader->stats().reads_issued) : 0);
  put("reader.frags", frags);
  for (size_t r = 0; r < Testbed::kReplicas; ++r) {
    put("reader.replica_frags." + std::to_string(r),
        tb.reader ? double(tb.reader->replica_frags(r)) : 0.0);
  }

  hyperloop::rdma::Nic::Counters nc;
  for (size_t s = 0; s < cl.size(); ++s) {
    core::Server& srv = cl.server(s);
    for (size_t n = 0; n < srv.num_nics(); ++n) {
      const auto& x = srv.nic(n).counters();
      nc.wqes_posted += x.wqes_posted;
      nc.doorbells += x.doorbells;
      nc.packets_tx += x.packets_tx;
      nc.bytes_tx += x.bytes_tx;
      nc.flushes += x.flushes;
      nc.rnr_stalls += x.rnr_stalls;
      nc.retransmits += x.retransmits;
      nc.qp_cache_hits += x.qp_cache_hits;
      nc.qp_cache_misses += x.qp_cache_misses;
      nc.payload_bytes_copied += x.payload_bytes_copied;
    }
  }
  put("nic.wqes_posted", double(nc.wqes_posted));
  put("nic.doorbells", double(nc.doorbells));
  put("nic.packets_tx", double(nc.packets_tx));
  put("nic.bytes_tx", double(nc.bytes_tx));
  put("nic.flushes", double(nc.flushes));
  put("nic.rnr_stalls", double(nc.rnr_stalls));
  put("nic.retransmits", double(nc.retransmits));
  put("nic.qp_cache_hits", double(nc.qp_cache_hits));
  put("nic.qp_cache_misses", double(nc.qp_cache_misses));
  put("nic.payload_bytes_copied", double(nc.payload_bytes_copied));
  put("net.packets_dropped", double(cl.net().packets_dropped()));
  return c;
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double h = p / 100.0 * double(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double a = samples[lo], b = samples[hi];
  if (!std::isfinite(b)) return b;
  return a + (h - double(lo)) * (b - a);
}

PhaseResult run_phase(Testbed& tb, const PhaseParams& p, Tracer* tracer) {
  PhaseRun run(tb, p, tracer);
  return run.run();
}

}  // namespace perfbench
