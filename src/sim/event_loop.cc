#include "sim/event_loop.h"

#include <cstdio>
#include <cstdlib>

namespace hyperloop::sim {

EventLoop::~EventLoop() {
  // Destroy callbacks of events still pending (cancelled slots already
  // released theirs eagerly).
  for (uint32_t idx = 0; idx < next_slot_; ++idx) {
    Slot& s = slot(idx);
    if (s.state == Slot::kPending) destroy_callback(s);
  }
}

bool EventLoop::cancel(EventId id) {
  const uint32_t idx = static_cast<uint32_t>(id);
  if (idx >= next_slot_) return false;
  Slot& s = slot(idx);
  if (s.state != Slot::kPending || s.gen != static_cast<uint32_t>(id >> 32)) {
    return false;
  }
  // Lazy cancel: release the callback now (frees captured resources), but
  // leave the heap entry in place; it is skipped and recycled when popped.
  destroy_callback(s);
  s.state = Slot::kCancelled;
  --live_;
  return true;
}

void EventLoop::key_overflow(uint64_t seq, uint32_t idx) {
  std::fprintf(stderr,
               "EventLoop: queue key overflow (seq %llu, limit %llu; slot %u, "
               "limit %llu)\n",
               static_cast<unsigned long long>(seq),
               static_cast<unsigned long long>(kMaxSeq), idx,
               static_cast<unsigned long long>(kMaxSlots));
  std::abort();
}

uint64_t EventLoop::run() {
  stopped_ = false;
  uint64_t n = 0;
  while (!stopped_) {
    if (near_.empty()) {
      if (far_.empty()) break;
      refill();
    }
    const Entry top = near_.top();
    const uint32_t idx = slot_of(top);
    // Chunks are address-stable, so callbacks may schedule (growing the
    // slab/queue) without invalidating `s` or its storage.
    Slot& s = slot(idx);
    near_.pop();
    if (s.state == Slot::kCancelled) {
      recycle(s, idx);
      continue;  // lazy cancel: skip the stale entry
    }
    fire(s, idx, top.time);
    ++n;
  }
  return n;
}

uint64_t EventLoop::run_until(Time deadline) {
  stopped_ = false;
  uint64_t n = 0;
  while (!stopped_) {
    if (near_.empty()) {
      if (far_.empty()) break;
      refill();
    }
    const Entry top = near_.top();
    const uint32_t idx = slot_of(top);
    Slot& s = slot(idx);
    if (s.state == Slot::kCancelled) {
      near_.pop();
      recycle(s, idx);
      continue;
    }
    if (top.time > deadline) break;  // not yet due; leave it pending
    near_.pop();
    fire(s, idx, top.time);
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace hyperloop::sim
