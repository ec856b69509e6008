// Receive-queue storage: one flat ring of 16-byte cells.
//
// Pre-posted RECVs carry from 0 to SgeList::kMaxSges scatter entries
// (HyperLoop's chain RECVs 4-12, Fan-out's widest primary 25, the
// baselines' command RECVs 1, immediate-only ACK RECVs 0), so a ring of
// fixed-size RecvWqe slots would store, zero and copy the widest list
// for every post. RecvRing stores each posted RECV as one header cell
// (wr_id, SGE count) followed by exactly `count` Sge cells. An entry may
// wrap past the buffer end; readers reach its SGEs through the index
// mask, so there is no padding. The buffer is a power of two in cells,
// doubles when a post does not fit, and is never zero-filled: a cell is
// read only after a post wrote it. Like sim::Ring it stops allocating
// once the workload's high-water mark is reached.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "rdma/wqe.h"

namespace hyperloop::rdma {

class RecvRing {
 public:
  bool empty() const { return count_ == 0; }
  /// Posted-but-unconsumed RECVs (not cells).
  size_t size() const { return count_; }

  /// Appends `w` as 1 + w.sges.size() cells.
  void push_back(const RecvWqe& w) {
    const uint32_t n = w.sges.count;
    const size_t need = tail_ - head_ + 1 + n;
    if (need > cap_) grow(need);
    cell(tail_).head = Header{w.wr_id, n, 0};
    for (uint32_t i = 0; i < n; ++i) {
      cell(tail_ + 1 + i).sge = w.sges.entries[i];
    }
    tail_ += 1 + n;
    ++count_;
  }

  /// The front RECV, read in place: valid until the next push_back or
  /// pop_front.
  uint64_t front_wr_id() const { return front_header().wr_id; }
  uint32_t front_sge_count() const { return front_header().count; }
  const Sge& front_sge(uint32_t i) const {
    assert(i < front_sge_count());
    return cell(head_ + 1 + i).sge;
  }

  void pop_front() {
    head_ += 1 + front_sge_count();
    --count_;
  }

 private:
  struct Header {
    uint64_t wr_id;
    uint32_t count;
    uint32_t pad;
  };
  union Cell {
    Header head;
    Sge sge;
  };
  static_assert(sizeof(Cell) == 16);
  static constexpr size_t kInitialCells = 16;

  /// Cell at unmasked index `i`.
  Cell& cell(size_t i) { return cells_[i & (cap_ - 1)]; }
  const Cell& cell(size_t i) const { return cells_[i & (cap_ - 1)]; }

  const Header& front_header() const {
    assert(!empty());
    return cell(head_).head;
  }

  void grow(size_t need) {
    size_t cap = cap_ == 0 ? kInitialCells : 2 * cap_;
    while (cap < need) cap *= 2;
    std::unique_ptr<Cell[]> next(new Cell[cap]);  // trivial: not zeroed
    const size_t used = tail_ - head_;
    for (size_t i = 0; i < used; ++i) next[i] = cell(head_ + i);
    cells_ = std::move(next);
    cap_ = cap;
    head_ = 0;
    tail_ = used;
  }

  std::unique_ptr<Cell[]> cells_;
  size_t cap_ = 0;   ///< cells, a power of two (0 until the first post)
  size_t head_ = 0;  ///< cell index of the front header (unmasked)
  size_t tail_ = 0;  ///< cell index one past the back entry (unmasked)
  size_t count_ = 0;
};

}  // namespace hyperloop::rdma
