// End-to-end open-loop YCSB benchmark of the HyperLoop simulator.
//
//   ycsb_bench --workload <kv-a|doc-f-tenants|doc-b-sharded> --seed <n>
//              --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics: one nominal-rate phase, then a
// ladder of offered rates (each rung on a freshly set-up testbed) up to
// the first rung that misses the workload's p99 limit.
// --trace 1 prints the per-layer metrics: the nominal phase once
// untraced (heap and wall-clock baselines) and once through the tracing
// group wrapper, requires both to agree on every simulated metric and
// counter, and writes a Chrome trace-event file to --out-dir.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gauge.h"
#include "phase.h"
#include "inputs.h"
#include "stats/histogram.h"
#include "testbed.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// A percentile landing on a failed or unfinished op has no finite value;
// it is reported as this many microseconds, above any simulated latency.
constexpr double kFailedUs = 1e9;
// Wall-clock guards keep every run inside its time budget even if a
// chain wedges: a phase past its guard stops, and its outstanding ops
// count as failed.
constexpr double kNominalGuardS = 80;
constexpr double kRungGuardS = 15;
constexpr double kLadderBudgetS = 140;
constexpr int kMinSetups = 5;
// sim_ops_per_wall_s is the median over the nominal phase's windows of
// the window's ops per wall second times (gauge seconds after it / this):
// the rate the simulator keeps on a host where one gauge unit takes 1 ms.
constexpr double kGaugeRefS = 1e-3;
// setup_s is the median over a run's set-ups of the set-up's wall time
// times (this / the memory gauge's time just before it): set-up time is
// mostly page faults and zeroing, whose cost drifts with the neighbours'
// memory traffic.
constexpr double kMemRefS = 0.05;
constexpr size_t kKeptSpans = 20000;
// The simulated testbed (background-tenant draws, fabric loss stream) is
// the same machine in every run; --seed draws only the workload: arrival
// times, op mix, keys and values.
constexpr uint64_t kTestbedSeed = 0x7e57bed5eedULL;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && a->seconds >= 1 && a->seconds <= 600 &&
         (a->trace == 0 || a->trace == 1) && argc % 2 == 1;
}

double us_at(std::vector<double> v, double pct) {
  const double ns = percentile(v, pct);
  return std::isfinite(ns) ? ns / 1e3 : kFailedUs;
}

// Median estimated as the mean of the central 1% of samples. On kv-a
// reads (5 us) and writes (15 us) never overlap, so the middle pair alone
// would hinge on whether the single slowest read queued; the central band
// averages over thousands of samples instead.
double median_us(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t lo = n * 495 / 1000;
  const size_t hi = std::max(lo + 1, (n * 505 + 999) / 1000);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  const double ns = sum / double(hi - lo);
  return std::isfinite(ns) ? ns / 1e3 : kFailedUs;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

double spread(const Counters& d, const std::string& prefix, size_t n) {
  double mx = 0, sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const double x = d.get(prefix + std::to_string(i));
    mx = std::max(mx, x);
    sum += x;
  }
  return sum > 0 ? mx / (sum / double(n)) : 0.0;
}

struct Setup {
  std::unique_ptr<Testbed> tb;
  double wall_s = 0;
  double memory_s = 0;  ///< the memory gauge, read just before the set-up
  /// The set-up's time on a host where the memory gauge takes kMemRefS.
  double scaled_s() const { return wall_s * kMemRefS / memory_s; }
};

// Builds and load-checks a testbed; exits the process when it cannot.
Setup set_up(const WorkloadSpec& spec, uint64_t seed,
             const GroupWrapper& wrap = {}) {
  Setup s;
  s.memory_s = memory_gauge_s();
  const Clock::time_point t0 = Clock::now();
  s.tb = build_testbed(spec, seed, wrap);
  s.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("setup: %.3f s wall at %.1f ms/memory gauge\n", s.wall_s,
              1e3 * s.memory_s);
  if (!s.tb || !verify_load(*s.tb)) {
    std::fprintf(stderr, "set-up failed for %s; no result\n",
                 spec.name.c_str());
    std::exit(1);
  }
  return s;
}

bool phase_correct(const PhaseResult& r) {
  return r.bad_values == 0 && r.lost_writes == 0;
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

uint64_t sized(double per_s, int seconds) {
  return std::max<uint64_t>(20000, static_cast<uint64_t>(per_s * seconds));
}

int run_end_to_end(const WorkloadSpec& spec, const Args& a) {
  const Clock::time_point start = Clock::now();
  std::vector<double> setups;
  bool correct = true;

  Setup s = set_up(spec, kTestbedSeed);
  setups.push_back(s.scaled_s());
  HostGauge gauge;
  PhaseParams pp{spec.nominal_rate, sized(spec.nominal_ops_per_s, a.seconds),
                 mix(a.seed, 2), kNominalGuardS, &gauge};
  PhaseResult nom = run_phase(*s.tb, pp, nullptr);
  s.tb.reset();
  correct &= phase_correct(nom);
  std::vector<double> speeds;
  for (size_t i = 0; i < nom.window_rates.size(); ++i) {
    speeds.push_back(nom.window_rates[i] * nom.window_gauge_s[i] / kGaugeRefS);
  }
  std::printf("nominal: %.0f ops/s offered, %llu ops, %llu failed, "
              "%.2f s wall, median window %.0f ops/s at %.3f ms/gauge\n",
              spec.nominal_rate, static_cast<unsigned long long>(nom.attempted),
              static_cast<unsigned long long>(nom.failed), nom.wall_s,
              median(nom.window_rates), 1e3 * median(nom.window_gauge_s));

  // Rate ladder: the realized offered rate of the highest rung that keeps
  // p99 within the limit with at least 99% of its ops completed.
  double max_kops = 0;
  for (size_t i = 0; i < spec.ladder.size(); ++i) {
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        kLadderBudgetS) {
      std::printf("ladder: wall budget spent, stopping before rung %zu\n", i);
      break;
    }
    Setup r = set_up(spec, kTestbedSeed);
    setups.push_back(r.scaled_s());
    PhaseParams rp{spec.nominal_rate * spec.ladder[i],
                   sized(spec.rung_ops_per_s, a.seconds), mix(a.seed, 20 + i),
                   kRungGuardS};
    PhaseResult rr = run_phase(*r.tb, rp, nullptr);
    r.tb.reset();
    correct &= phase_correct(rr);
    const double p99 = us_at(rr.all, 99);
    const double done = ratio(double(rr.completed), double(rr.attempted));
    const bool pass = p99 <= spec.p99_limit_us && done >= 0.99 &&
                      phase_correct(rr) && !rr.wall_guard_hit;
    const double offered_kops =
        double(rr.attempted - 1) / sim::to_sec(rr.offered_span) / 1e3;
    std::printf("ladder: %.0f ops/s offered (%.3f kops/s realized), p99 "
                "%.1f us, %.4f completed, %s\n",
                rp.rate, offered_kops, p99, done, pass ? "pass" : "miss");
    if (!pass) break;
    max_kops = offered_kops;
  }
  while (setups.size() < kMinSetups) {
    Setup extra = set_up(spec, kTestbedSeed);
    setups.push_back(extra.scaled_s());
  }

  const double window = nom.delta.get("sim_now");
  std::vector<Metric> m = {
      {"sim_ops_per_wall_s", median(speeds), "ops/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_p50_us", median_us(nom.all), "us"},
      {"sim_p99_us", us_at(nom.all, 99), "us"},
      {"sim_p999_us", us_at(nom.all, 99.9), "us"},
      {"sim_write_p50_us", median_us(nom.writes), "us"},
      {"sim_write_p99_us", us_at(nom.writes, 99), "us"},
      {"sim_read_p50_us", median_us(nom.reads), "us"},
      {"sim_read_p99_us", us_at(nom.reads, 99), "us"},
      {"sim_max_kops_at_slo", max_kops, "kops/s"},
      {"replica_cpu_pct",
       100.0 * ratio(nom.delta.get("replica_cpu_ns"),
                     window * double(Testbed::kReplicas)),
       "%"},
      {"completed_frac", ratio(double(nom.completed), double(nom.attempted)),
       "ratio"},
  };
  print_result(correct, nom.attempted, nom.failed, m);
  return correct ? 0 : 1;
}

// Simulated outputs that must repeat exactly for a given seed.
std::vector<double> fingerprint(const PhaseResult& r) {
  std::vector<double> f;
  for (const auto& kv : r.delta.v) f.push_back(kv.second);
  f.insert(f.end(), r.all.begin(), r.all.end());
  f.push_back(r.dirty_kb_after_drain);
  f.push_back(double(r.events));
  f.push_back(double(r.completed));
  return f;
}

int run_traced(const WorkloadSpec& spec, const Args& a) {
  const PhaseParams pp{spec.nominal_rate,
                       sized(spec.nominal_ops_per_s, a.seconds),
                       mix(a.seed, 2), kNominalGuardS};

  Setup s = set_up(spec, kTestbedSeed);
  const PhaseResult base = run_phase(*s.tb, pp, nullptr);
  s.tb.reset();

  std::unique_ptr<Tracer> tracer;
  auto wrap = [&](sim::EventLoop& loop,
                  core::ReplicationGroup& real) -> core::ReplicationGroup& {
    tracer = std::make_unique<Tracer>(loop, spec.value_size, kKeptSpans);
    return tracer->wrap(real);
  };
  Setup t = set_up(spec, kTestbedSeed, wrap);
  const PhaseResult tr = run_phase(*t.tb, pp, tracer.get());
  Testbed& tb = *t.tb;

  bool correct = phase_correct(base) && phase_correct(tr);
  const bool same = fingerprint(base) == fingerprint(tr);
  std::printf("determinism: traced and untraced runs %s\n",
              same ? "agree on every simulated metric and counter"
                   : "DIFFER");
  correct &= same;

  const std::string path = a.out_dir + "/trace-" + spec.name + "-seed" +
                           std::to_string(a.seed) + ".json";
  if (tracer->write_chrome_json(path, tr.ops)) {
    std::printf("trace: %zu group spans, Chrome trace events in %s\n",
                tracer->spans(), path.c_str());
  } else {
    std::printf("trace: could not write %s\n", path.c_str());
  }

  const Counters& d = tr.delta;
  const double ops = double(tr.attempted);
  // User bytes: values written by completed writes (what replication
  // amplifies) and values moved by all completed ops (what the NICs copy).
  uint64_t write_ops = 0;
  for (const OpRecord& op : tr.ops) {
    if (op.kind != OpKind::kRead && op.done >= 0 && op.ok) ++write_ops;
  }
  const double written_bytes = double(write_ops) * spec.value_size;
  const double moved_bytes = double(tr.completed) * spec.value_size;
  hyperloop::stats::Histogram commit, reads;
  for (uint32_t sh = 0; sh < spec.shards; ++sh) {
    commit.merge(tb.kv ? tb.kv->wal(sh).commit_latency()
                       : tb.doc->wal(sh).commit_latency());
  }
  if (tb.reader) reads = tb.reader->read_latency();
  const double t0 = tr.ops.empty() ? 0 : double(tr.ops.front().due);
  const double hits = d.get("nic.qp_cache_hits");
  const double lookups = hits + d.get("nic.qp_cache_misses");

  std::vector<Metric> m = {
      {"sim.events_per_op", double(tr.events) / ops, "count"},
      {"sim.wall_ns_per_event", 1e9 * base.wall_s / double(base.events),
       "ns"},
      {"sim.run_wall_frac", ratio(base.run_until_wall_s, base.wall_s),
       "ratio"},
      {"sim.callback_heap_allocs_per_op", d.get("cb_heap_allocs") / ops,
       "count"},
      {"proc.heap_allocs_per_op", double(base.heap_allocs) / ops, "count"},
      {"proc.heap_bytes_per_op", double(base.heap_bytes) / ops, "B"},
      {"sched.ctx_switches_per_op", d.get("ctx_switches") / ops, "count"},
      {"sched.frontend_cpu_us_per_op", d.get("frontend_cpu_ns") / 1e3 / ops,
       "us"},
      {"sched.replica_cpu_us_per_op", d.get("replica_cpu_ns") / 1e3 / ops,
       "us"},
      {"apps.submit_wall_ns_per_op",
       double(tracer->bucket_ns(Tracer::kEngine)) / ops, "ns"},
      {"apps.kv_checkpoints_per_kop", 1e3 * d.get("kv_checkpoints") / ops,
       "count"},
      {"wal.records_per_gwritev",
       ratio(d.get("wal.records_appended"), d.get("wal.gwritev_batches")),
       "count"},
      {"wal.commit_p50_us", double(commit.percentile(50)) / 1e3, "us"},
      {"wal.commit_p99_us", double(commit.percentile(99)) / 1e3, "us"},
      {"wal.append_failures_per_op", d.get("wal.append_failures") / ops,
       "count"},
      {"wal.records_per_exec_batch",
       ratio(d.get("wal.records_executed"), d.get("wal.exec_batches")),
       "count"},
      {"lock.wr_conflicts_per_acquire",
       ratio(d.get("lock.wr_conflicts"), d.get("lock.wr_acquired")), "ratio"},
      {"lock.partial_undos_per_kop", 1e3 * d.get("lock.partial_undos") / ops,
       "count"},
      {"lock.rd_locks_per_op", d.get("lock.rd_acquired") / ops, "count"},
      {"txn.abort_frac",
       ratio(d.get("txn.aborted"),
             d.get("txn.aborted") + d.get("txn.committed")),
       "ratio"},
      {"group.gwritev_per_op", d.get("group.gwritevs") / ops, "count"},
      {"group.extents_per_gwritev",
       ratio(d.get("group.gwritev_extents"), d.get("group.gwritevs")),
       "count"},
      {"group.gcas_per_op", d.get("group.gcas") / ops, "count"},
      {"group.gmemcpy_per_op", d.get("group.gmemcpys") / ops, "count"},
      {"group.gflush_per_op", d.get("group.gflushes") / ops, "count"},
      {"group.bytes_per_user_byte",
       ratio(d.get("group.bytes_replicated"), written_bytes), "ratio"},
      {"group.gwritev_p50_us", tracer->span_percentile_us(Prim::kGwritev, 50),
       "us"},
      {"group.gcas_p50_us", tracer->span_percentile_us(Prim::kGcas, 50), "us"},
      {"group.gcas_p99_us", tracer->span_percentile_us(Prim::kGcas, 99), "us"},
      {"group.busy_frac",
       tracer->busy_frac(sim::Time(t0), sim::Time(t0) + tr.sim_elapsed),
       "ratio"},
      {"group.shard_ops_spread",
       tb.sharded ? spread(d, "group.shard_ops.", spec.shards) : 0.0, "ratio"},
      {"reader.reads_per_op", d.get("reader.reads") / ops, "count"},
      {"reader.frags_per_read",
       ratio(d.get("reader.frags"), d.get("reader.reads")), "count"},
      {"reader.read_p50_us", double(reads.percentile(50)) / 1e3, "us"},
      {"reader.read_p99_us", double(reads.percentile(99)) / 1e3, "us"},
      {"reader.replica_spread",
       tb.reader ? spread(d, "reader.replica_frags.", Testbed::kReplicas)
                 : 0.0,
       "ratio"},
      {"nic.wqes_posted_per_op", d.get("nic.wqes_posted") / ops, "count"},
      {"nic.doorbells_per_op", d.get("nic.doorbells") / ops, "count"},
      {"nic.packets_per_op", d.get("nic.packets_tx") / ops, "count"},
      {"nic.bytes_tx_per_op", d.get("nic.bytes_tx") / ops, "B"},
      {"nic.payload_copies_per_user_byte",
       ratio(d.get("nic.payload_bytes_copied"), moved_bytes), "ratio"},
      {"nic.retransmits_per_kop", 1e3 * d.get("nic.retransmits") / ops,
       "count"},
      {"nic.rnr_stalls", d.get("nic.rnr_stalls"), "count"},
      {"nic.qp_cache_hit_ratio", ratio(hits, lookups), "ratio"},
      {"net.packets_dropped", d.get("net.packets_dropped"), "count"},
      {"nvm.flushes_per_op", d.get("nic.flushes") / ops, "count"},
      {"nvm.dirty_kb_after_drain", tr.dirty_kb_after_drain, "KB"},
      {"trace.wall_overhead_frac", ratio(tr.wall_s, base.wall_s) - 1.0,
       "ratio"},
      {"trace.group_spans", double(tracer->spans()), "count"},
      {"wall.engine_frac", tracer->bucket_frac(Tracer::kEngine), "ratio"},
      {"wall.group_frac", tracer->bucket_frac(Tracer::kGroup), "ratio"},
      {"wall.loop_frac", tracer->bucket_frac(Tracer::kLoop), "ratio"},
      {"wall.other_frac", tracer->bucket_frac(Tracer::kOther), "ratio"},
  };
  t.tb.reset();
  print_result(correct, base.attempted + tr.attempted, base.failed + tr.failed,
               m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: ycsb_bench --workload <name> --seed <n> --seconds "
                 "<1..600> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to run: built without NDEBUG (build type "
                       "%s); rebuild with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to run: build type %s is not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s; known:", a.workload.c_str());
    for (const std::string& n : workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("workload %s seed %llu seconds %d trace %d build %s\n",
              spec->name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, PERFBENCH_BUILD_TYPE);
  return a.trace ? run_traced(*spec, a) : run_end_to_end(*spec, a);
}
