// Two-level dirty bitmap at cache-line (64 B) granularity.
//
// The NVM durability tracker's hot operations are: mark a written range
// dirty (every CPU store / NIC DMA into the NVM range), clear a range on
// persist, query a range (is_durable), and walk all dirty lines
// (persist_all / crash). IntervalSet (tests/interval_set.h, now the test
// reference model) does these in O(log n) with a std::map — node
// allocation on every insert, erase on every persist. This bitmap does
// them in O(words touched) with zero heap allocation after construction:
//
//   level 0: one bit per 64 B line of the tracked range
//   level 1: one summary bit per level-0 word (= per 64 lines = 4 KiB)
//
// mark/clear are a handful of shifts, masks and popcounts; queries are
// masked word scans; full walks scan only the summary-word watermark
// window that mark() has touched since the last time the map emptied, so
// a clean or lightly dirtied device is walked in O(dirty extent), not
// O(device size). dirty_bytes() is a maintained line popcount.
//
// Granularity contract: tracking is per 64 B line, matching real
// persistent-memory hardware where CLWB/gFLUSH flush whole cache lines.
// mark() and clear_range() round byte ranges outward to line boundaries;
// a range is "dirty" if any overlapping line is dirty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperloop::nvm {

class DirtyBitmap {
 public:
  static constexpr uint64_t kLineShift = 6;
  static constexpr uint64_t kLineBytes = 1ull << kLineShift;  // 64

  /// Tracks [0, size_bytes). All storage is allocated here, up front.
  explicit DirtyBitmap(uint64_t size_bytes);

  uint64_t size_bytes() const { return size_; }

  /// Marks every line overlapping [begin, end) dirty. No-op if empty.
  void mark(uint64_t begin, uint64_t end) {
    uint64_t first, last;
    if (to_lines(begin, end, &first, &last)) {
      mark_lines(first, last, [](uint64_t, uint64_t) {});
    }
  }

  /// Marks lines [first, last] dirty (inclusive line indices inside the
  /// tracked range) and calls fn(w, added) for each level-0 word w in
  /// which it set bits that were clear, with those bits. Inline, so a
  /// caller's per-word work rides the marking pass: the NVM undo pool
  /// ANDs `added` with its own per-line bits on every store.
  template <typename Fn>
  void mark_lines(uint64_t first, uint64_t last, Fn&& fn) {
    const uint64_t w0 = first >> 6, w1 = last >> 6;
    const size_t s0 = w0 >> 6, s1 = (w1 >> 6) + 1;
    if (sum_lo_ >= sum_hi_) {
      sum_lo_ = s0;
      sum_hi_ = s1;
    } else {
      if (s0 < sum_lo_) sum_lo_ = s0;
      if (s1 > sum_hi_) sum_hi_ = s1;
    }
    for (uint64_t w = w0; w <= w1; ++w) {
      const int lo = w == w0 ? static_cast<int>(first & 63) : 0;
      const int hi = w == w1 ? static_cast<int>(last & 63) : 63;
      const uint64_t add = bit_span(lo, hi) & ~words_[w];
      if (add == 0) continue;
      words_[w] |= add;
      dirty_lines_ += popcount(add);
      summary_[w >> 6] |= 1ull << (w & 63);
      fn(w, add);
    }
  }

  /// Clears every line overlapping [begin, end) (persist rounds outward:
  /// flushing any byte of a line flushes the whole line).
  void clear_range(uint64_t begin, uint64_t end);

  /// Clears everything; visits only set summary words.
  void clear_all();

  /// True if any line overlapping [begin, end) is dirty. Empty: false.
  bool any_dirty(uint64_t begin, uint64_t end) const;

  /// True if every line overlapping [begin, end) is dirty. Empty: true.
  bool all_dirty(uint64_t begin, uint64_t end) const;

  bool empty() const { return dirty_lines_ == 0; }
  uint64_t dirty_lines() const { return dirty_lines_; }

  /// Dirty footprint at tracking granularity (dirty lines x 64 B).
  uint64_t dirty_bytes() const { return dirty_lines_ << kLineShift; }

  /// Level-0 word `w`: bit i is set iff line 64*w + i is dirty. Read-only,
  /// for callers that combine the dirty map word-wise with per-line bits
  /// of their own (the NVM undo pool).
  uint64_t word(size_t w) const { return words_[w]; }

  /// Calls fn(w, bits) for each non-zero level-0 word, in ascending order,
  /// with its dirty bits. Allocation-free; only the summary-word watermark
  /// window [sum_lo_, sum_hi_) is scanned, so walking a clean or lightly
  /// dirtied device never touches the full summary (persist_all fires on
  /// every gFLUSH — this is hot). For callers that combine the map
  /// word-wise with per-line bits of their own (NvmDevice::persist_all
  /// and crash).
  template <typename Fn>
  void for_each_dirty_word(Fn&& fn) const {
    for (size_t s = sum_lo_; s < sum_hi_; ++s) {
      for (uint64_t sw = summary_[s]; sw != 0; sw &= sw - 1) {
        const size_t w = (s << 6) + static_cast<size_t>(__builtin_ctzll(sw));
        fn(static_cast<uint64_t>(w), words_[w]);
      }
    }
  }

 private:
  /// Set bits of `x`, inline. __builtin_popcountll is a libgcc call unless
  /// the build targets a POPCNT-capable ISA, and marking runs per store.
  static uint64_t popcount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
  }

  /// Mask of line bits within one word for inclusive lines [lo, hi], where
  /// lo and hi are bit positions 0..63.
  static uint64_t bit_span(int lo, int hi) {
    const uint64_t upper = hi == 63 ? ~0ull : (1ull << (hi + 1)) - 1;
    return upper & ~((1ull << lo) - 1);
  }

  /// Clamps [begin, end) to the tracked range and converts to an inclusive
  /// line pair. Returns false for empty/out-of-range inputs.
  bool to_lines(uint64_t begin, uint64_t end, uint64_t* first,
                uint64_t* last) const;

  uint64_t size_;
  uint64_t lines_;
  uint64_t dirty_lines_ = 0;
  std::vector<uint64_t> words_;    // level 0: bit per line
  std::vector<uint64_t> summary_;  // level 1: bit per level-0 word
  // Watermark window: summary words outside [sum_lo_, sum_hi_) are known
  // clean. Widened by mark(), reset when the map empties; keeps full walks
  // (persist_all / crash / clear_all) proportional to the dirty extent
  // rather than the device size.
  size_t sum_lo_ = 0;
  size_t sum_hi_ = 0;
};

}  // namespace hyperloop::nvm
