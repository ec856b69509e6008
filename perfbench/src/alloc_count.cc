// Counting replacements for the global allocation functions. The
// standard library's array and nothrow forms forward to these, so every
// allocation is counted exactly once.
#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {
uint64_t g_allocs = 0;
uint64_t g_bytes = 0;
}  // namespace

namespace perfbench {
HeapCount heap_count() { return {g_allocs, g_bytes}; }
}  // namespace perfbench

void* operator new(std::size_t n) {
  ++g_allocs;
  g_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  g_bytes += n;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
