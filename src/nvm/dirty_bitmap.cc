#include "nvm/dirty_bitmap.h"

namespace hyperloop::nvm {

DirtyBitmap::DirtyBitmap(uint64_t size_bytes)
    : size_(size_bytes),
      lines_((size_bytes + kLineBytes - 1) >> kLineShift),
      words_((lines_ + 63) / 64, 0),
      summary_((words_.size() + 63) / 64, 0) {}

bool DirtyBitmap::to_lines(uint64_t begin, uint64_t end, uint64_t* first,
                           uint64_t* last) const {
  if (begin >= end || begin >= size_) return false;
  if (end > size_) end = size_;
  *first = begin >> kLineShift;
  *last = (end - 1) >> kLineShift;  // inclusive
  return true;
}

void DirtyBitmap::clear_range(uint64_t begin, uint64_t end) {
  uint64_t first, last;
  if (!to_lines(begin, end, &first, &last)) return;
  const uint64_t w0 = first >> 6, w1 = last >> 6;
  for (uint64_t w = w0; w <= w1; ++w) {
    const int lo = w == w0 ? static_cast<int>(first & 63) : 0;
    const int hi = w == w1 ? static_cast<int>(last & 63) : 63;
    const uint64_t rem = bit_span(lo, hi) & words_[w];
    if (rem == 0) continue;
    words_[w] &= ~rem;
    dirty_lines_ -= popcount(rem);
    if (words_[w] == 0) summary_[w >> 6] &= ~(1ull << (w & 63));
  }
  if (dirty_lines_ == 0) sum_lo_ = sum_hi_ = 0;
}

void DirtyBitmap::clear_all() {
  for (size_t s = sum_lo_; s < sum_hi_; ++s) {
    uint64_t sw = summary_[s];
    while (sw != 0) {
      const int b = __builtin_ctzll(sw);
      sw &= sw - 1;
      words_[(s << 6) + static_cast<size_t>(b)] = 0;
    }
    summary_[s] = 0;
  }
  dirty_lines_ = 0;
  sum_lo_ = sum_hi_ = 0;
}

bool DirtyBitmap::any_dirty(uint64_t begin, uint64_t end) const {
  uint64_t first, last;
  if (!to_lines(begin, end, &first, &last)) return false;
  const uint64_t w0 = first >> 6, w1 = last >> 6;
  for (uint64_t w = w0; w <= w1; ++w) {
    if ((summary_[w >> 6] & (1ull << (w & 63))) == 0) {
      continue;  // whole word clean
    }
    const int lo = w == w0 ? static_cast<int>(first & 63) : 0;
    const int hi = w == w1 ? static_cast<int>(last & 63) : 63;
    if ((words_[w] & bit_span(lo, hi)) != 0) return true;
  }
  return false;
}

bool DirtyBitmap::all_dirty(uint64_t begin, uint64_t end) const {
  uint64_t first, last;
  if (!to_lines(begin, end, &first, &last)) return true;
  const uint64_t w0 = first >> 6, w1 = last >> 6;
  for (uint64_t w = w0; w <= w1; ++w) {
    const int lo = w == w0 ? static_cast<int>(first & 63) : 0;
    const int hi = w == w1 ? static_cast<int>(last & 63) : 63;
    const uint64_t need = bit_span(lo, hi);
    if ((words_[w] & need) != need) return false;
  }
  return true;
}

}  // namespace hyperloop::nvm
