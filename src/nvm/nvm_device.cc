#include "nvm/nvm_device.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace hyperloop::nvm {

namespace {

constexpr uint64_t kLineShift = DirtyBitmap::kLineShift;
constexpr uint64_t kLineBytes = DirtyBitmap::kLineBytes;

/// Bits of line word `w` (lines 64w..64w+63) inside inclusive lines
/// [first, last].
inline uint64_t line_span(uint64_t w, uint64_t first, uint64_t last) {
  const uint64_t lo = w == first >> 6 ? first & 63 : 0;
  const uint64_t hi = w == last >> 6 ? last & 63 : 63;
  const uint64_t upper = hi == 63 ? ~0ull : (1ull << (hi + 1)) - 1;
  return upper & ~((1ull << lo) - 1);
}

/// What a line that was never flushed reverts to.
constexpr uint8_t kZeroLine[kLineBytes] = {};

}  // namespace

NvmDevice::NvmDevice(rdma::HostMemory& mem, size_t size)
    : mem_(mem), base_(mem.alloc(size, 4096)), size_(size),
      live_(mem.view(base_, size)), dirty_(size),
      flushed_((((size + kLineBytes - 1) >> kLineShift) + 63) / 64, 0),
      chunk_of_((size + kChunkBytes - 1) / kChunkBytes, 0) {
  // Watch exactly the NVM range: stores elsewhere (WQE rings, CQEs,
  // payload staging) are filtered out by HostMemory before any call.
  mem_.add_write_observer(
      base_, base_ + size_,
      [this](rdma::Addr addr, size_t len) { on_write(addr, len); });
}

rdma::Addr NvmDevice::alloc(size_t bytes, size_t align) {
  uint64_t off = (next_ + align - 1) & ~(align - 1);
  assert(off + bytes <= size_ && "NVM exhausted");
  next_ = off + bytes;
  return base_ + off;
}

void NvmDevice::on_write(rdma::Addr addr, size_t len) {
  const uint64_t begin = std::max<uint64_t>(addr, base_);
  const uint64_t end = std::min<uint64_t>(addr + len, base_ + size_);
  if (begin >= end) return;
  dirty_.mark_lines((begin - base_) >> kLineShift,
                    (end - 1 - base_) >> kLineShift,
                    [this](uint64_t w, uint64_t added) {
                      // A clean line equals its durable contents. If it
                      // was flushed before, those contents are about to
                      // be overwritten: save them.
                      const uint64_t save = added & flushed_[w];
                      if (save != 0) save_lines(w, save);
                    });
}

void NvmDevice::save_lines(uint64_t w, uint64_t lines) {
  do {
    const uint64_t line =
        (w << 6) + static_cast<uint64_t>(__builtin_ctzll(lines));
    lines &= lines - 1;
    uint32_t id = chunk_of_[line >> kChunkShift];
    if (id == 0) id = acquire_chunk(line >> kChunkShift);
    uint8_t* to = pool_[id - 1].data() +
                  ((line & (kChunkLines - 1)) << kLineShift);
    const uint64_t off = line << kLineShift;
    if (off + kLineBytes <= size_) {
      std::memcpy(to, live_ + off, kLineBytes);  // a fixed-size copy
    } else {
      std::memcpy(to, live_ + off, size_ - off);  // the device's tail
    }
  } while (lines != 0);
}

uint32_t NvmDevice::acquire_chunk(uint64_t chunk) {
  uint32_t id;
  if (free_chunks_.empty()) {
    pool_.emplace_back();
    id = static_cast<uint32_t>(pool_.size());
  } else {
    id = free_chunks_.back();
    free_chunks_.pop_back();
  }
  chunk_of_[chunk] = id;
  ++live_chunks_;
  return id;
}

const uint8_t* NvmDevice::preimage(uint64_t line) const {
  const uint32_t id = chunk_of_[line >> kChunkShift];
  assert(id != 0 && "flushed dirty line without a pre-image");
  return pool_[id - 1].data() + ((line & (kChunkLines - 1)) << kLineShift);
}

void NvmDevice::release_chunk(uint64_t chunk) {
  free_chunks_.push_back(chunk_of_[chunk]);
  chunk_of_[chunk] = 0;
  --live_chunks_;
}

void NvmDevice::release_groups(uint64_t w, uint64_t held) {
  while (held != 0) {
    const uint64_t lo = static_cast<uint64_t>(__builtin_ctzll(held));
    held &= ~(((1ull << kChunkLines) - 1) << (lo & ~(kChunkLines - 1)));
    release_chunk(((w << 6) + lo) >> kChunkShift);
  }
}

void NvmDevice::persist(rdma::Addr addr, uint64_t len) {
  const uint64_t begin = std::max<uint64_t>(addr, base_);
  const uint64_t end = std::min<uint64_t>(addr + len, base_ + size_);
  if (begin >= end) return;
  // CLWB semantics: flushing any byte of a line writes back the whole
  // line, so its current bytes become its durable contents.
  const uint64_t first = (begin - base_) >> kLineShift;
  const uint64_t last = (end - 1 - base_) >> kLineShift;
  for (uint64_t w = first >> 6; w <= last >> 6; ++w) {
    flushed_[w] |= dirty_.word(w) & line_span(w, first, last);
  }
  dirty_.clear_range(begin - base_, end - base_);
  if (live_chunks_ == 0) return;
  // Drop each chunk in the range that no longer holds the pre-image of a
  // dirty line (dirty and flushed); lines outside the range may still
  // need it.
  for (uint64_t c = first >> kChunkShift; c <= last >> kChunkShift; ++c) {
    if (chunk_of_[c] == 0) continue;
    const uint64_t w = c >> (6 - kChunkShift);
    const uint64_t shift = (c << kChunkShift) & 63;
    const uint64_t held = (dirty_.word(w) & flushed_[w]) >> shift;
    if ((held & ((1ull << kChunkLines) - 1)) == 0) release_chunk(c);
  }
}

void NvmDevice::persist_all() {
  // Every dirty line becomes clean and flushed. A group has a chunk iff
  // one of its lines is dirty and was flushed before, so those are the
  // chunks to free.
  dirty_.for_each_dirty_word([this](uint64_t w, uint64_t bits) {
    if (live_chunks_ != 0) release_groups(w, bits & flushed_[w]);
    flushed_[w] |= bits;
  });
  dirty_.clear_all();
}

bool NvmDevice::is_durable(rdma::Addr addr, uint64_t len) const {
  const uint64_t begin = std::max<uint64_t>(addr, base_);
  const uint64_t end = std::min<uint64_t>(addr + len, base_ + size_);
  if (begin >= end) return true;
  return !dirty_.any_dirty(begin - base_, end - base_);
}

void NvmDevice::crash() {
  ++crashes_;
  // Revert only the dirty lines: a line flushed before gets its pre-image
  // back, any other the zeroes it started as. restore() bypasses the
  // write observer, so the revert does not re-mark the lines dirty. A
  // 16-line group lies within one 64-line word, so a word's chunks are
  // freed only after all of its lines, in every dirty run, are restored.
  dirty_.for_each_dirty_word([this](uint64_t w, uint64_t bits) {
    const uint64_t held = bits & flushed_[w];
    for (uint64_t b = bits; b != 0; b &= b - 1) {
      const uint64_t bit = static_cast<uint64_t>(__builtin_ctzll(b));
      const uint64_t line = (w << 6) + bit;
      const uint64_t off = line << kLineShift;
      mem_.restore(base_ + off,
                   (held >> bit) & 1 ? preimage(line) : kZeroLine,
                   std::min<uint64_t>(kLineBytes, size_ - off));
    }
    release_groups(w, held);
  });
  dirty_.clear_all();
}

}  // namespace hyperloop::nvm
