#include "gauge.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

namespace perfbench {
namespace {

constexpr size_t kWords = size_t{1} << 15;  // 256 KB
constexpr size_t kHeap = 4096;
constexpr int kSteps = 20000;
constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
constexpr size_t kMemoryBytes = size_t{64} << 20;

volatile uint64_t g_sink = 0;

}  // namespace

HostGauge::HostGauge() : words_(kWords) {
  for (size_t i = 0; i < kWords; ++i) words_[i] = i * kMul;
  uint64_t x = kMul;
  for (size_t i = 0; i < kHeap; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap_.push_back(x >> 20);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<uint64_t>());
}

double HostGauge::measure() {
  uint64_t warm = 0;
  for (uint64_t w : words_) warm += w;
  for (uint64_t w : heap_) warm += w;
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t idx = idx_;
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<uint64_t>());
    const uint64_t key = heap_.back();
    const uint64_t v = words_[idx];
    words_[idx] = v + key;
    idx = ((v ^ (key * 0xff51afd7ed558ccdULL)) >> 11) & (kWords - 1);
    heap_.back() = key + (v & 0xffff) + 1;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<uint64_t>());
  }
  const auto t1 = std::chrono::steady_clock::now();
  idx_ = idx;
  g_sink = warm + idx;
  return std::chrono::duration<double>(t1 - t0).count();
}

double memory_gauge_s() {
  const auto t0 = std::chrono::steady_clock::now();
  void* p = mmap(nullptr, kMemoryBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::fprintf(stderr, "memory gauge: mmap of %zu bytes failed\n",
                 kMemoryBytes);
    std::exit(1);
  }
  std::memset(p, 1, kMemoryBytes);
  munmap(p, kMemoryBytes);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
