#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "inputs.h"

namespace perfbench {

namespace {

const char* prim_name(Prim p) {
  switch (p) {
    case Prim::kGwrite: return "gwrite";
    case Prim::kGwritev: return "gwritev";
    case Prim::kGmemcpy: return "gmemcpy";
    case Prim::kGcas: return "gcas";
    case Prim::kGflush: return "gflush";
  }
  return "?";
}

// Forwards every primitive to the real group, bracketing it with a span.
// The store only ever holds a ReplicationGroup&, so it cannot tell the
// difference; completions are parked in a pooled slot and the wrapper's
// own continuation captures just [this, slot].
class TracingGroup final : public core::ReplicationGroup {
 public:
  TracingGroup(Tracer& t, core::ReplicationGroup& real) : t_(t), real_(real) {}

  size_t group_size() const override { return real_.group_size(); }
  uint64_t region_size() const override { return real_.region_size(); }

  void gwrite(uint64_t offset, uint32_t len, bool flush,
              core::Done done) override {
    load_payload(offset, len);
    const uint32_t s = park(Prim::kGwrite, len, std::move(done));
    forward(s, [&] {
      real_.gwrite(offset, len, flush, [this, s] { finish(s); });
    });
  }
  void gwritev(const core::ExtentVec& extents, bool flush,
               core::Done done) override {
    scratch_.clear();
    uint32_t bytes = 0;
    for (const core::Extent& e : extents) {
      const size_t at = scratch_.size();
      scratch_.resize(at + e.len);
      real_.client_load(e.offset, scratch_.data() + at, e.len);
      bytes += e.len;
    }
    const uint32_t s = park(Prim::kGwritev, bytes, std::move(done));
    forward(s, [&] {
      real_.gwritev(extents, flush, [this, s] { finish(s); });
    });
  }
  void gmemcpy(uint64_t src_offset, uint64_t dst_offset, uint32_t len,
               bool flush, core::Done done) override {
    load_payload(src_offset, len);
    const uint32_t s = park(Prim::kGmemcpy, len, std::move(done));
    forward(s, [&] {
      real_.gmemcpy(src_offset, dst_offset, len, flush,
                    [this, s] { finish(s); });
    });
  }
  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            core::ExecMap exec_map, core::CasDone done) override {
    scratch_.clear();
    const uint32_t s = park(Prim::kGcas, 8, core::Done{});
    slots_[s].cas_done = std::move(done);
    forward(s, [&] {
      real_.gcas(offset, expected, desired, exec_map,
                 [this, s](const core::CasResult& r) { finish_cas(s, r); });
    });
  }
  void gflush(core::Done done) override {
    scratch_.clear();
    const uint32_t s = park(Prim::kGflush, 0, std::move(done));
    forward(s, [&] { real_.gflush([this, s] { finish(s); }); });
  }
  void stop() override { real_.stop(); }
  void client_store(uint64_t offset, const void* src, uint32_t len) override {
    real_.client_store(offset, src, len);
  }
  void client_load(uint64_t offset, void* dst, uint32_t len) const override {
    real_.client_load(offset, dst, len);
  }
  void replica_load(size_t i, uint64_t offset, void* dst,
                    uint32_t len) const override {
    real_.replica_load(i, offset, dst, len);
  }

 private:
  struct Slot {
    uint32_t span = 0;
    core::Done done;
    core::CasDone cas_done;
  };

  void load_payload(uint64_t offset, uint32_t len) {
    scratch_.resize(len);
    if (len > 0) real_.client_load(offset, scratch_.data(), len);
  }

  uint32_t park(Prim p, uint32_t bytes, core::Done done) {
    uint32_t s;
    if (free_.empty()) {
      s = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      s = free_.back();
      free_.pop_back();
    }
    slots_[s].span = t_.begin_span(p, bytes, scratch_.data(), scratch_.size());
    slots_[s].done = std::move(done);
    return s;
  }

  template <typename F>
  void forward(uint32_t s, F&& call) {
    const uint32_t span = slots_[s].span;
    t_.push(Tracer::kGroup);
    const auto t0 = std::chrono::steady_clock::now();
    call();
    const auto t1 = std::chrono::steady_clock::now();
    t_.pop();
    t_.set_wall(span,
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count());
  }

  void finish(uint32_t s) {
    t_.end_span(slots_[s].span);
    core::Done done = std::move(slots_[s].done);
    free_.push_back(s);
    if (done) done();
  }
  void finish_cas(uint32_t s, const core::CasResult& r) {
    t_.end_span(slots_[s].span);
    core::CasDone done = std::move(slots_[s].cas_done);
    free_.push_back(s);
    if (done) done(r);
  }

  Tracer& t_;
  core::ReplicationGroup& real_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  std::vector<uint8_t> scratch_;
};

}  // namespace

Tracer::Tracer(sim::EventLoop& loop, uint32_t value_size,
               size_t max_kept_spans)
    : loop_(loop), value_size_(value_size), max_kept_(max_kept_spans) {}

Tracer::~Tracer() = default;

core::ReplicationGroup& Tracer::wrap(core::ReplicationGroup& real) {
  wrapper_ = std::make_unique<TracingGroup>(*this, real);
  return *wrapper_;
}

void Tracer::push(Bucket b) {
  if (!wall_on_) return;
  const auto now = Clock::now();
  bucket_ns_[stack_.back()] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_).count();
  last_ = now;
  stack_.push_back(b);
}

void Tracer::pop() {
  if (!wall_on_) return;
  const auto now = Clock::now();
  bucket_ns_[stack_.back()] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_).count();
  last_ = now;
  stack_.pop_back();
}

void Tracer::start_wall() {
  stack_.assign(1, kOther);
  last_ = Clock::now();
  wall_on_ = true;
}

void Tracer::stop_wall() {
  pop();
  wall_on_ = false;
}

double Tracer::bucket_frac(Bucket b) const {
  int64_t total = 0;
  for (int64_t ns : bucket_ns_) total += ns;
  return total > 0 ? static_cast<double>(bucket_ns_[b]) / total : 0.0;
}

uint32_t Tracer::begin_span(Prim p, uint32_t bytes, const uint8_t* payload,
                            size_t payload_len) {
  GroupSpan sp;
  sp.prim = p;
  sp.bytes = bytes;
  sp.submit = loop_.now();
  sp.first_parent = static_cast<uint32_t>(parents_.size());
  // A WAL batch carries several ops' records: every benchmark value found
  // in the payload names one parent op. Records keep entries 8-aligned.
  for (size_t off = 0; off + value_size_ <= payload_len;) {
    uint64_t key = 0, op = 0;
    if (decode_value(payload + off, value_size_, &key, &op)) {
      parents_.push_back(op);
      ++sp.num_parents;
      off += value_size_;
    } else {
      off += 8;
    }
  }
  spans_.push_back(sp);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::end_span(uint32_t idx) { spans_[idx].done = loop_.now(); }

double Tracer::span_percentile_us(Prim p, double pct) const {
  std::vector<double> v;
  for (const GroupSpan& s : spans_) {
    if (s.prim == p && s.done >= 0) v.push_back(double(s.done - s.submit));
  }
  if (v.empty()) return 0.0;
  return percentile(v, pct) / 1e3;
}

double Tracer::busy_frac(sim::Time t0, sim::Time t1) const {
  if (t1 <= t0) return 0.0;
  std::vector<std::pair<sim::Time, sim::Time>> iv;
  for (const GroupSpan& s : spans_) {
    const sim::Time b = std::max(s.submit, t0);
    const sim::Time e = std::min(s.done < 0 ? t1 : s.done, t1);
    if (e > b) iv.emplace_back(b, e);
  }
  std::sort(iv.begin(), iv.end());
  sim::Time busy = 0, cur_b = 0, cur_e = -1;
  for (const auto& [b, e] : iv) {
    if (b > cur_e) {
      if (cur_e > cur_b) busy += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_b) busy += cur_e - cur_b;
  return static_cast<double>(busy) / static_cast<double>(t1 - t0);
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::vector<OpRecord>& ops) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  static const char* kOpNames[] = {"read", "update", "read_modify_write"};
  const size_t nops = std::min(ops.size(), max_kept_);
  for (size_t i = 0; i < nops; ++i) {
    const OpRecord& op = ops[i];
    if (!op.submitted) continue;
    const sim::Time end = op.done >= 0 ? op.done : loop_.now();
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%zu,"
                 "\"key\":%llu,\"due_us\":%.3f,\"submit_us\":%.3f,"
                 "\"ok\":%s}}",
                 kOpNames[static_cast<int>(op.kind)], i % 64,
                 op.due / 1e3, (end - op.due) / 1e3, i,
                 static_cast<unsigned long long>(op.key), op.due / 1e3,
                 op.due / 1e3, op.done >= 0 && op.ok ? "true" : "false");
  }
  const size_t nspans = std::min(spans_.size(), max_kept_);
  for (size_t i = 0; i < nspans; ++i) {
    const GroupSpan& s = spans_[i];
    const sim::Time end = s.done >= 0 ? s.done : loop_.now();
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"group\",\"ph\":\"X\",\"pid\":2,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"bytes\":%u,"
                 "\"wall_ns\":%lld,\"parents\":[",
                 prim_name(s.prim), static_cast<int>(s.prim) * 16 + int(i % 16),
                 s.submit / 1e3, (end - s.submit) / 1e3, s.bytes,
                 static_cast<long long>(s.wall_ns));
    for (uint32_t k = 0; k < s.num_parents; ++k) {
      std::fprintf(f, "%s%llu", k ? "," : "",
                   static_cast<unsigned long long>(
                       parents_[s.first_parent + k]));
    }
    std::fputs("]}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
