#include "rdma/memory.h"

#include <algorithm>
#include <cassert>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace hyperloop::rdma {

void HostMemory::advise_hugepages(void* base, size_t len) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Round inward to 2 MB boundaries — madvise wants aligned pages, and
  // partial huge pages at the edges are not worth asking for.
  constexpr uintptr_t kHuge = 2u << 20;
  uintptr_t lo = (reinterpret_cast<uintptr_t>(base) + kHuge - 1) & ~(kHuge - 1);
  uintptr_t hi = (reinterpret_cast<uintptr_t>(base) + len) & ~(kHuge - 1);
  if (hi > lo) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)base;
  (void)len;
#endif
}

Addr HostMemory::alloc(size_t size, size_t align) {
  assert(align != 0 && (align & (align - 1)) == 0);
  size_t base = (next_ + align - 1) & ~(align - 1);
  assert(base + size <= bytes_.size() && "HostMemory exhausted");
  next_ = base + size;
  return base;
}

void HostMemory::restore(Addr addr, const void* src, size_t len) {
  if (len == 0) return;
  check(addr, len);
  borrows_.materialize_range(addr, len);
  std::memcpy(bytes_.data() + addr, src, len);
}

void HostMemory::copy(Addr dst, Addr src, size_t len) {
  if (len == 0) return;
  check(dst, len);
  check(src, len);
  borrows_.materialize_range(dst, len);
  std::memmove(bytes_.data() + dst, bytes_.data() + src, len);
  if (watched(dst, len)) notify(dst, len);
}

void HostMemory::fill(Addr addr, uint8_t value, size_t len) {
  if (len == 0) return;
  check(addr, len);
  borrows_.materialize_range(addr, len);
  std::memset(bytes_.data() + addr, value, len);
  if (watched(addr, len)) notify(addr, len);
}

void HostMemory::add_write_observer(Addr begin, Addr end,
                                    sim::SmallFn<void(Addr, size_t)> fn) {
  assert(begin < end && "observer must watch a non-empty range");
  observers_.push_back(WriteObserver{begin, end, std::move(fn)});
  watch_lo_ = std::min(watch_lo_, begin);
  watch_hi_ = std::max(watch_hi_, end);
}

void HostMemory::notify(Addr addr, size_t len) {
  for (auto& o : observers_) {
    if (addr < o.end && addr + len > o.begin) o.fn(addr, len);
  }
}

const uint8_t* HostMemory::view(Addr addr, size_t len) const {
  check(addr, len);
  return bytes_.data() + addr;
}

PayloadBuf HostMemory::borrow_payload(Addr addr, size_t len) {
  check(addr, len);
  return PayloadBuf::borrow(borrows_, bytes_.data() + addr, addr, len);
}

MemoryRegion MrTable::register_mr(Addr addr, uint64_t length, uint32_t access) {
  uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<uint32_t>(slots_.size());
    assert(idx <= kSlotMask && "MR table exhausted");
    slots_.emplace_back();
    slots_.back().gen = 1;
  }
  Slot& s = slots_[idx];
  s.live = true;
  s.mr.addr = addr;
  s.mr.length = length;
  s.mr.access = access;
  s.mr.lkey = (s.gen << kSlotBits) | idx;
  s.mr.rkey = s.mr.lkey | kRemoteKeyBit;
  ++live_;
  return s.mr;
}

bool MrTable::deregister(uint32_t rkey) {
  if ((rkey & kRemoteKeyBit) == 0) return false;
  const uint32_t idx = rkey & kSlotMask;
  if (idx >= slots_.size()) return false;
  Slot& s = slots_[idx];
  if (!s.live || ((rkey >> kSlotBits) & kGenMask) != s.gen) return false;
  s.live = false;
  if (++s.gen > kGenMask) s.gen = 1;  // wrap, never issue generation 0
  free_.push_back(idx);
  --live_;
  return true;
}

bool MrTable::in_bounds(const MemoryRegion& mr, Addr addr, uint64_t len) {
  return addr >= mr.addr && addr + len <= mr.addr + mr.length;
}

const MemoryRegion* MrTable::lookup(uint32_t key, bool remote) const {
  if (((key & kRemoteKeyBit) != 0) != remote) return nullptr;
  const uint32_t idx = key & kSlotMask;
  if (idx >= slots_.size()) return nullptr;
  const Slot& s = slots_[idx];
  if (!s.live || ((key >> kSlotBits) & kGenMask) != s.gen) return nullptr;
  return &s.mr;
}

bool MrTable::check_remote(uint32_t rkey, Addr addr, uint64_t len,
                           uint32_t need) const {
  const MemoryRegion* mr = lookup(rkey, /*remote=*/true);
  if (mr == nullptr) return false;
  if ((mr->access & need) != need) return false;
  return in_bounds(*mr, addr, len);
}

bool MrTable::check_local(uint32_t lkey, Addr addr, uint64_t len) const {
  const MemoryRegion* mr = lookup(lkey, /*remote=*/false);
  if (mr == nullptr) return false;
  return in_bounds(*mr, addr, len);
}

}  // namespace hyperloop::rdma
