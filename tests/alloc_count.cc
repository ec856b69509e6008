// Counting replacements for the global allocation functions. They live
// in their own translation unit so every call site sees a plain
// operator new / operator delete pair; the malloc/free pairing below
// stays private to this file. The standard library's array and nothrow
// forms forward to these, so every allocation is counted exactly once.
#include "alloc_count.h"

#include <cstdlib>
#include <new>

uint64_t g_alloc_count = 0;
uint64_t g_alloc_bytes = 0;

void* operator new(std::size_t n) {
  ++g_alloc_count;
  g_alloc_bytes += n;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
