// A growable FIFO ring over a flat power-of-two buffer.
//
// std::deque is the wrong container for the simulator's steady-state
// queues (RC retransmit windows, receive queues, completion queues): its
// block map allocates and frees a node every time the queue level crosses
// a block boundary, so even a queue oscillating between 0 and 1 entries
// churns the allocator. Ring keeps one buffer that doubles until the
// workload's high-water mark is reached and then never allocates again —
// the property the binary-wide allocation-hook tests lock in.
//
// Elements are value slots: push_back assigns into a slot, pop_front
// re-assigns a default-constructed value over non-trivial elements so
// resources (e.g. pooled PayloadBuf references) are released immediately.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace hyperloop::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return tail_ - head_; }

  T& front() {
    assert(!empty());
    return buf_[head_ & mask()];
  }
  const T& front() const {
    assert(!empty());
    return buf_[head_ & mask()];
  }

  /// i-th element from the front (0 == front()).
  T& operator[](size_t i) {
    assert(i < size());
    return buf_[(head_ + i) & mask()];
  }
  const T& operator[](size_t i) const {
    assert(i < size());
    return buf_[(head_ + i) & mask()];
  }

  /// `v` must not refer into this ring: a push that grows the buffer
  /// frees the storage it would be read from.
  void push_back(const T& v) {
    if (size() == buf_.size()) grow();
    buf_[tail_ & mask()] = v;
    ++tail_;
  }
  void push_back(T&& v) {
    if (size() == buf_.size()) grow();
    buf_[tail_ & mask()] = std::move(v);
    ++tail_;
  }

  void pop_front() {
    assert(!empty());
    if constexpr (!std::is_trivially_destructible_v<T>) {
      buf_[head_ & mask()] = T{};  // release held resources now
    }
    ++head_;
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  size_t mask() const { return buf_.size() - 1; }

  void grow() {
    const size_t n = size();
    std::vector<T> next(buf_.empty() ? 8 : buf_.size() * 2);
    for (size_t i = 0; i < n; ++i) next[i] = std::move(buf_[(head_ + i) & mask()]);
    buf_ = std::move(next);
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t tail_ = 0;
};

}  // namespace hyperloop::sim
