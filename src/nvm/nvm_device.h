// Simulated non-volatile memory with an explicit volatile front.
//
// The paper's durability pitfall (§4.2, gFLUSH): an RDMA WRITE is ACKed
// once the data reaches the NIC's *volatile* cache, so an un-flushed write
// can be lost on power failure even though the writer saw success. We model
// this precisely:
//
//   - The "live" bytes reside in the server's HostMemory (visible to all
//     readers immediately).
//   - Every write inside the NVM range is recorded as dirty (volatile).
//   - What would survive power loss is kept as an undo pool, not as a
//     second image of the device: when a line that was flushed before
//     goes from clean to dirty, its pre-image (the bytes it held at its
//     last flush) is saved. HostMemory calls the write observer before
//     the store lands, so the pre-image is simply the live line.
//   - persist() makes a range durable (CPU cache-line flush or the NIC's
//     gFLUSH-triggered cache write-back): its dirty lines become clean
//     and "flushed at least once", and their pre-images are dropped.
//   - crash() puts each dirty line back to its pre-image, or to zero if
//     it was never flushed, i.e. un-persisted writes vanish — which is
//     how tests prove gFLUSH is both necessary and sufficient.
//
// Pre-images live in fixed 1 KB chunks (16 lines) drawn from a free list
// and indexed per 16-line group of the device; a chunk goes back to the
// free list as soon as none of its lines is dirty. The pool therefore
// holds only what is dirty over flushed data, and copies each line at
// most once between two flushes of it. A clean line always equals its
// durable contents, so it needs nothing. The save check rides the dirty
// bitmap's marking pass (DirtyBitmap::mark_lines hands over the bits a
// store newly sets), so a store that dirties nothing new pays no more
// than the marking itself.
//
// Dirty tracking is a two-level DirtyBitmap at 64 B cache-line
// granularity (see dirty_bitmap.h): marking, persisting and querying are
// word operations with zero steady-state heap allocation, and — like real
// CLWB/ADR hardware — flushing any byte of a line makes the whole line
// durable. The tests check this device against a full-shadow reference
// model driven by IntervalSet (tests/nvm_undo_property_test.cc).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "nvm/dirty_bitmap.h"
#include "rdma/memory.h"

namespace hyperloop::nvm {

/// A byte-range of a server's HostMemory backed by simulated NVM.
class NvmDevice {
 public:
  /// Carves `size` bytes out of `mem` (allocated here) and hooks write
  /// observation so all stores into the range are tracked as dirty.
  NvmDevice(rdma::HostMemory& mem, size_t size);
  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  /// Base address of the NVM range within the host address space.
  rdma::Addr base() const { return base_; }
  size_t size() const { return size_; }

  /// Bump-allocates a sub-range of the NVM for a durable data structure
  /// (replicated region, write-ahead log, ...). Asserts on exhaustion.
  rdma::Addr alloc(size_t bytes, size_t align = 64);

  /// True if `addr` falls inside the NVM range.
  bool contains(rdma::Addr addr) const {
    return addr >= base_ && addr < base_ + size_;
  }

  /// Flushes [addr, addr+len) from the volatile domain to the durable
  /// medium, rounded outward to whole 64 B lines (CLWB semantics).
  /// Out-of-range parts are ignored.
  void persist(rdma::Addr addr, uint64_t len);

  /// Flushes every dirty byte (a full cache write-back, what the NIC does
  /// when it services a gFLUSH 0-byte READ).
  void persist_all();

  /// True if every byte of [addr, addr+len) would survive a crash, i.e.
  /// no overlapping cache line is dirty.
  bool is_durable(rdma::Addr addr, uint64_t len) const;

  /// Bytes currently at risk (written but not persisted), reported at
  /// line granularity: dirty lines x 64.
  uint64_t dirty_bytes() const { return dirty_.dirty_bytes(); }

  /// Pre-image storage in use: live undo chunks x 1 KB. Zero when no
  /// line that was flushed before is dirty.
  uint64_t undo_bytes() const { return live_chunks_ * kChunkBytes; }

  /// Simulates power failure: all un-persisted writes are lost; the live
  /// bytes revert to the last durable state.
  void crash();

  /// Number of crash() calls so far (for failure-injection accounting).
  uint64_t crash_count() const { return crashes_; }

 private:
  static constexpr uint64_t kChunkShift = 4;  // 16 lines per chunk
  static constexpr uint64_t kChunkLines = 1ull << kChunkShift;
  static constexpr uint64_t kChunkBytes = kChunkLines
                                          << DirtyBitmap::kLineShift;

  /// Runs before every store overlapping the range: marks its lines dirty
  /// and saves the pre-image of each flushed line the store turns dirty.
  void on_write(rdma::Addr addr, size_t len);
  /// Saves the lines set in `lines` (bits of line word `w`).
  void save_lines(uint64_t w, uint64_t lines);
  /// Gives 16-line group `chunk`, which has none, a chunk from the free
  /// list (or grows the pool) and returns its id.
  uint32_t acquire_chunk(uint64_t chunk);
  /// Pre-image bytes of `line` (which must be flushed and dirty).
  const uint8_t* preimage(uint64_t line) const;
  /// Frees the chunk of every 16-line group with a bit set in `held`
  /// (bits of line word `w`).
  void release_groups(uint64_t w, uint64_t held);
  void release_chunk(uint64_t chunk);

  rdma::HostMemory& mem_;
  rdma::Addr base_;
  size_t size_;
  const uint8_t* live_;  // the device's bytes in mem_
  DirtyBitmap dirty_;  // offsets relative to base_, 64 B line granularity
  // Bit per line: persisted at least once, so its durable contents may be
  // non-zero. A line that is dirty and flushed has a saved pre-image.
  std::vector<uint64_t> flushed_;
  // Per 16-line group: pool chunk id holding its pre-images, 0 = none.
  std::vector<uint32_t> chunk_of_;
  // Chunk id i (1-based) is pool_[i - 1]; the pool only grows, to the
  // device's high-water mark of live chunks.
  std::vector<std::array<uint8_t, kChunkBytes>> pool_;
  std::vector<uint32_t> free_chunks_;
  uint64_t live_chunks_ = 0;
  uint64_t next_ = 0;  // bump allocator offset
  uint64_t crashes_ = 0;
};

}  // namespace hyperloop::nvm
