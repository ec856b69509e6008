// NvmDevice's undo pool checked move for move against a full-shadow
// reference model.
//
// ShadowNvm below is the design NvmDevice had before the undo pool: a
// second image of the whole device holds what survives power loss,
// persist copies live lines into it and crash copies the dirty lines back.
// Its dirty set is an IntervalSet of line-rounded ranges, so it shares no
// code with the device under test. Both watch their own HostMemory, are
// driven with the same seeded random stores, flushes and crashes, and
// must agree after every step on the live bytes, dirty_bytes, is_durable
// and the exact pre-image footprint (undo_bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "interval_set.h"
#include "nvm/nvm_device.h"
#include "sim/rng.h"

namespace hyperloop::nvm {
namespace {

constexpr uint64_t kLine = DirtyBitmap::kLineBytes;
constexpr uint64_t kChunkLines = 16;  // pre-images are pooled 1 KB at a time
constexpr size_t kMemBytes = 1 << 20;

class ShadowNvm {
 public:
  ShadowNvm(rdma::HostMemory& mem, size_t size)
      : mem_(mem), base_(mem.alloc(size, 4096)), size_(size),
        durable_(size, 0), flushed_((size + kLine - 1) / kLine, false) {
    mem_.add_write_observer(base_, base_ + size_,
                            [this](rdma::Addr addr, size_t len) {
                              const Lines l = lines(addr, len);
                              dirty_.insert(l.begin, l.end);
                            });
  }

  rdma::Addr base() const { return base_; }

  void persist(rdma::Addr addr, uint64_t len) {
    const Lines l = lines(addr, len);
    if (l.begin >= l.end) return;
    for (const auto& iv : dirty_.intervals()) {
      mark_flushed(std::max(iv.begin, l.begin), std::min(iv.end, l.end));
    }
    save(l.begin, l.end);
    dirty_.erase(l.begin, l.end);
  }

  void persist_all() {
    for (const auto& iv : dirty_.intervals()) {
      mark_flushed(iv.begin, iv.end);
      save(iv.begin, iv.end);
    }
    dirty_.clear();
  }

  void crash() {
    for (const auto& iv : dirty_.intervals()) {
      const uint64_t e = std::min<uint64_t>(iv.end, size_);
      mem_.restore(base_ + iv.begin, durable_.data() + iv.begin,
                   e - iv.begin);
    }
    dirty_.clear();
  }

  bool is_durable(rdma::Addr addr, uint64_t len) const {
    const Lines l = lines(addr, len);
    return l.begin >= l.end || !dirty_.intersects(l.begin, l.end);
  }

  uint64_t dirty_bytes() const { return dirty_.total_bytes(); }

  /// 1 KB per 16-line group holding a dirty line that was flushed before:
  /// exactly the pre-images a crash would need.
  uint64_t undo_bytes() const {
    std::vector<bool> chunk(flushed_.size() / kChunkLines + 1, false);
    for (const auto& iv : dirty_.intervals()) {
      for (uint64_t l = iv.begin / kLine; l < iv.end / kLine; ++l) {
        if (flushed_[l]) chunk[l / kChunkLines] = true;
      }
    }
    return static_cast<uint64_t>(std::count(chunk.begin(), chunk.end(), true)) *
           kChunkLines * kLine;
  }

 private:
  struct Lines {
    uint64_t begin, end;  // device offsets, whole lines
  };

  /// [addr, addr+len) clipped to the device and rounded outward to lines.
  /// A partial last line still counts as one whole line.
  Lines lines(rdma::Addr addr, uint64_t len) const {
    const uint64_t b = std::max<uint64_t>(addr, base_);
    const uint64_t e = std::min<uint64_t>(addr + len, base_ + size_);
    if (b >= e) return {0, 0};
    return {(b - base_) / kLine * kLine,
            (e - base_ + kLine - 1) / kLine * kLine};
  }

  void save(uint64_t b, uint64_t e) {
    e = std::min<uint64_t>(e, size_);
    mem_.read(base_ + b, durable_.data() + b, e - b);
  }

  void mark_flushed(uint64_t b, uint64_t e) {
    for (uint64_t l = b / kLine; l * kLine < e; ++l) flushed_[l] = true;
  }

  rdma::HostMemory& mem_;
  rdma::Addr base_;
  size_t size_;
  std::vector<uint8_t> durable_;
  std::vector<bool> flushed_;  // per line: persisted while dirty, ever
  IntervalSet dirty_;
};

/// The device under test and the reference, on two identical memories, so
/// every address means the same thing on both sides.
struct Pair {
  explicit Pair(size_t size)
      : mem{kMemBytes}, ref_mem{kMemBytes}, nvm{mem, size},
        ref{ref_mem, size} {}

  void write(rdma::Addr a, const void* src, size_t n) {
    mem.write(a, src, n);
    ref_mem.write(a, src, n);
  }
  void copy(rdma::Addr dst, rdma::Addr src, size_t n) {
    mem.copy(dst, src, n);
    ref_mem.copy(dst, src, n);
  }
  void fill(rdma::Addr a, uint8_t v, size_t n) {
    mem.fill(a, v, n);
    ref_mem.fill(a, v, n);
  }
  void persist(rdma::Addr a, uint64_t n) {
    nvm.persist(a, n);
    ref.persist(a, n);
  }
  void persist_all() {
    nvm.persist_all();
    ref.persist_all();
  }
  void crash() {
    nvm.crash();
    ref.crash();
  }

  /// Live bytes of the device plus a margin on each side, dirty_bytes and
  /// undo_bytes must match exactly.
  ::testing::AssertionResult agree(uint64_t margin) const {
    const rdma::Addr lo = nvm.base() - margin;
    const size_t span = nvm.size() + 2 * margin;
    const uint8_t* a = mem.view(lo, span);
    const uint8_t* b = ref_mem.view(lo, span);
    if (std::memcmp(a, b, span) != 0) {
      size_t i = 0;
      while (a[i] == b[i]) ++i;
      return ::testing::AssertionFailure()
             << "live bytes differ at device offset "
             << static_cast<int64_t>(lo + i - nvm.base());
    }
    if (nvm.dirty_bytes() != ref.dirty_bytes()) {
      return ::testing::AssertionFailure()
             << "dirty_bytes " << nvm.dirty_bytes() << " vs "
             << ref.dirty_bytes();
    }
    if (nvm.undo_bytes() != ref.undo_bytes()) {
      return ::testing::AssertionFailure()
             << "undo_bytes " << nvm.undo_bytes() << " vs "
             << ref.undo_bytes();
    }
    return ::testing::AssertionSuccess();
  }

  rdma::HostMemory mem, ref_mem;
  NvmDevice nvm;
  ShadowNvm ref;
};

/// Writes `n` bytes of a fixed pattern `tag` at device offset `off`.
void put(Pair& p, uint64_t off, uint64_t n, uint8_t tag) {
  std::vector<uint8_t> buf(n, tag);
  p.write(p.nvm.base() + off, buf.data(), n);
}

TEST(NvmUndo, ReferenceStartsAtTheSameBase) {
  Pair p(64 << 10);
  EXPECT_EQ(p.nvm.base(), p.ref.base());
  EXPECT_TRUE(p.agree(4096));
}

// One chunk holds the pre-images of two separate dirty runs when the
// crash comes: releasing the chunk after restoring the first run would
// leave the second run without its pre-images.
TEST(NvmUndo, OneChunkTwoDirtyRunsAtCrash) {
  Pair p(64 << 10);
  put(p, 0, kChunkLines * kLine, 0xAA);
  p.persist_all();
  put(p, 2 * kLine + 5, 10, 0x11);          // run 1: line 2
  put(p, 9 * kLine, 2 * kLine, 0x22);       // run 2: lines 9-10
  put(p, 15 * kLine + 63, 1, 0x33);         // run 3: line 15
  EXPECT_EQ(p.nvm.undo_bytes(), kChunkLines * kLine);
  ASSERT_TRUE(p.agree(0));
  p.crash();
  ASSERT_TRUE(p.agree(0));
  for (uint64_t off = 0; off < kChunkLines * kLine; ++off) {
    ASSERT_EQ(p.mem.read_obj<uint8_t>(p.nvm.base() + off), 0xAA) << off;
  }
  EXPECT_EQ(p.nvm.undo_bytes(), 0u);
}

// A persist that covers one of two dirty runs of a chunk keeps the chunk
// for the other run; persisting the second drops it.
TEST(NvmUndo, PartialPersistKeepsChunkForTheOtherRun) {
  Pair p(64 << 10);
  put(p, 0, kChunkLines * kLine, 0xAA);
  p.persist_all();
  put(p, kLine, kLine, 0x11);
  put(p, 12 * kLine, kLine, 0x22);
  p.persist(p.nvm.base() + kLine, 1);
  EXPECT_EQ(p.nvm.undo_bytes(), kChunkLines * kLine);
  ASSERT_TRUE(p.agree(0));
  p.persist(p.nvm.base() + 12 * kLine, kLine);
  EXPECT_EQ(p.nvm.undo_bytes(), 0u);
  p.crash();
  ASSERT_TRUE(p.agree(0));
}

// Seeded random stores (write/copy/fill; line-straddling, overlapping and
// across the device end), range persists, full persists and crashes. A
// device size that is not a whole number of lines checks the clamped
// last line too.
void run_random(uint64_t seed, size_t size, int steps) {
  Pair p(size);
  sim::Rng rng(seed);
  const rdma::Addr base = p.nvm.base();
  constexpr uint64_t kMargin = 512;  // stores may start or end outside
  std::vector<uint8_t> buf;

  auto pick_addr = [&] {
    if (rng.chance(0.1)) return base + size - rng.next_below(2 * kLine);
    if (rng.chance(0.05)) return base - rng.next_below(kMargin);
    // Small device windows so stores overlap and chunks are shared.
    return base + rng.next_below(size);
  };
  auto pick_len = [&]() -> uint64_t {
    if (rng.chance(0.1)) return 1 + rng.next_below(3 * 1024);
    return 1 + rng.next_below(2 * kLine + 8);
  };
  auto clip = [&](rdma::Addr a, uint64_t n) {
    return std::min<uint64_t>(n, base + size + kMargin - a);
  };

  for (int step = 0; step < steps; ++step) {
    const double roll = rng.next_double();
    const rdma::Addr a = pick_addr();
    const uint64_t n = clip(a, pick_len());
    if (roll < 0.35) {
      buf.resize(n);
      for (auto& b : buf) b = static_cast<uint8_t>(rng.next_u64());
      p.write(a, buf.data(), n);
    } else if (roll < 0.50) {
      const rdma::Addr src = pick_addr();
      p.copy(a, src, std::min(n, clip(src, n)));
    } else if (roll < 0.62) {
      p.fill(a, static_cast<uint8_t>(rng.next_u64()), n);
    } else if (roll < 0.95) {
      p.persist(a, rng.chance(0.05) ? size : n);
    } else if (roll < 0.98) {
      p.persist_all();
      ASSERT_EQ(p.nvm.undo_bytes(), 0u) << "step " << step;
    } else {
      p.crash();
      ASSERT_EQ(p.nvm.undo_bytes(), 0u) << "step " << step;
      ASSERT_EQ(p.nvm.dirty_bytes(), 0u) << "step " << step;
    }
    ASSERT_TRUE(p.agree(kMargin)) << "seed " << seed << " step " << step;
    for (int q = 0; q < 3; ++q) {
      const rdma::Addr qa = pick_addr();
      const uint64_t qn = pick_len();
      ASSERT_EQ(p.nvm.is_durable(qa, qn), p.ref.is_durable(qa, qn))
          << "seed " << seed << " step " << step;
    }
  }
  p.crash();
  ASSERT_TRUE(p.agree(kMargin)) << "seed " << seed << " final crash";
}

TEST(NvmUndo, MatchesShadowModelUnderRandomOps) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_random(seed, 32 << 10, 5000);
  }
}

TEST(NvmUndo, MatchesShadowModelWithPartialLastLine) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    run_random(seed, (16 << 10) + 40, 5000);
  }
}

}  // namespace
}  // namespace hyperloop::nvm
