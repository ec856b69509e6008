#include "rdma/memory.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/server.h"

namespace hyperloop::rdma {
namespace {

TEST(HostMemory, AllocAlignsAndAdvances) {
  HostMemory m(1 << 20);
  const Addr a = m.alloc(100, 64);
  const Addr b = m.alloc(100, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(HostMemory, AddressZeroNeverAllocated) {
  HostMemory m(1 << 20);
  EXPECT_NE(m.alloc(8), 0u);
}

TEST(HostMemory, WriteReadRoundTrip) {
  HostMemory m(4096);
  const Addr a = m.alloc(16);
  const char src[] = "hello world!!";
  m.write(a, src, sizeof(src));
  char dst[sizeof(src)];
  m.read(a, dst, sizeof(src));
  EXPECT_STREQ(dst, src);
}

TEST(HostMemory, TypedObjects) {
  struct P {
    int x;
    double y;
  };
  HostMemory m(4096);
  const Addr a = m.alloc(sizeof(P));
  m.write_obj(a, P{7, 2.5});
  const P p = m.read_obj<P>(a);
  EXPECT_EQ(p.x, 7);
  EXPECT_DOUBLE_EQ(p.y, 2.5);
}

TEST(HostMemory, CopyHandlesOverlap) {
  HostMemory m(4096);
  const Addr a = m.alloc(32);
  const char src[] = "abcdefgh";
  m.write(a, src, 8);
  m.copy(a + 4, a, 8);  // overlapping forward copy
  char out[8];
  m.read(a + 4, out, 8);
  EXPECT_EQ(std::memcmp(out, "abcdefgh", 8), 0);
}

TEST(HostMemory, FillSetsBytes) {
  HostMemory m(4096);
  const Addr a = m.alloc(64);
  m.fill(a, 0xAB, 64);
  uint8_t out[64];
  m.read(a, out, 64);
  for (uint8_t b : out) EXPECT_EQ(b, 0xAB);
}

TEST(HostMemory, ObserversSeeWrites) {
  HostMemory m(4096);
  Addr seen_addr = 0;
  size_t seen_len = 0;
  int calls = 0;
  m.add_write_observer(0, m.capacity(), [&](Addr a, size_t l) {
    seen_addr = a;
    seen_len = l;
    ++calls;
  });
  const Addr a = m.alloc(32);
  m.write(a, "x", 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_addr, a);
  EXPECT_EQ(seen_len, 1u);
  m.copy(a + 8, a, 4);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(seen_addr, a + 8);
  m.fill(a, 0, 16);
  EXPECT_EQ(calls, 3);
}

TEST(HostMemory, ObserversAreRangeFiltered) {
  HostMemory m(4096);
  const Addr lo = m.alloc(64);
  const Addr hi = m.alloc(64);
  int calls = 0;
  m.add_write_observer(lo, lo + 64, [&](Addr, size_t) { ++calls; });

  m.write(hi, "out", 3);  // outside the watched window: filtered
  m.fill(hi, 0xCC, 64);
  m.copy(hi, lo, 32);
  EXPECT_EQ(calls, 0);

  m.write(lo, "in", 2);  // fully inside
  EXPECT_EQ(calls, 1);
  m.write(lo + 60, "span", 4);  // ends exactly at the window boundary
  EXPECT_EQ(calls, 2);
  m.write(lo + 63, "XY", 2);  // straddles out of the window: still overlaps
  EXPECT_EQ(calls, 3);
}

TEST(HostMemory, MultipleObserversDispatchByRange) {
  HostMemory m(4096);
  const Addr a = m.alloc(64);
  const Addr b = m.alloc(64);
  int calls_a = 0, calls_b = 0;
  m.add_write_observer(a, a + 64, [&](Addr, size_t) { ++calls_a; });
  m.add_write_observer(b, b + 64, [&](Addr, size_t) { ++calls_b; });
  m.write(a, "1", 1);
  m.write(b, "2", 1);
  m.write(a + 32, "3", 1);
  EXPECT_EQ(calls_a, 2);
  EXPECT_EQ(calls_b, 1);
  // A write spanning both windows notifies both.
  std::vector<uint8_t> big(static_cast<size_t>(b + 8 - a), 0);
  m.write(a, big.data(), big.size());
  EXPECT_EQ(calls_a, 3);
  EXPECT_EQ(calls_b, 2);
}

TEST(HostMemory, RestoreBypassesObservers) {
  HostMemory m(4096);
  const Addr a = m.alloc(64);
  int calls = 0;
  m.add_write_observer(a, a + 64, [&](Addr, size_t) { ++calls; });
  m.restore(a, "quiet", 5);
  EXPECT_EQ(calls, 0);
  char out[6] = {};
  m.read(a, out, 5);
  EXPECT_STREQ(out, "quiet");  // bytes land even though nobody is told
}

TEST(HostMemory, ZeroLengthOpsAreNoops) {
  HostMemory m(4096);
  int calls = 0;
  m.add_write_observer(0, m.capacity(), [&](Addr, size_t) { ++calls; });
  const Addr a = m.alloc(8);
  m.write(a, nullptr, 0);
  m.read(a, nullptr, 0);
  m.copy(a, a, 0);
  EXPECT_EQ(calls, 0);
}

// Resident set of this process in bytes (second field of statm).
size_t resident_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

TEST(LazyArena, DefaultServerTouchesLittleMemory) {
  // The default 256 MB DRAM arena + 64 MB NVM shadow are kernel-zeroed
  // on first touch: building a server must not make them resident.
  sim::EventLoop loop;
  Network net{loop, Network::Config{}};
  const size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  core::Server server(loop, net, core::ServerConfig{});
  const size_t after = resident_bytes();
  EXPECT_EQ(server.mem().capacity(), size_t{256} << 20);
  EXPECT_LT(after, before + (size_t{8} << 20));
}

TEST(LazyArena, FreshArenaReadsZeroAtItsEnd) {
  HostMemory m(size_t{64} << 20);
  EXPECT_EQ(m.read_obj<uint64_t>(m.capacity() - 8), 0u);
}

TEST(LazyArenaDeathTest, StoreAtCapacityHitsGuardPage) {
  // The guard page traps an overrun in every build type: through
  // HostMemory (where Debug's bounds assert may fire first) and through
  // a raw store that no assert sees.
  HostMemory m(1 << 20);
  const uint8_t b = 1;
  EXPECT_DEATH(m.write(m.capacity(), &b, 1), "");
  LazyArena a(1 << 20);
  volatile uint8_t* end = a.data() + a.size();
  EXPECT_DEATH(*end = 1, "");
}

TEST(MrTable, RegisterAndCheck) {
  MrTable t;
  const MemoryRegion mr = t.register_mr(1000, 100, kRemoteWrite | kRemoteRead);
  EXPECT_NE(mr.lkey, mr.rkey);
  EXPECT_TRUE(t.check_remote(mr.rkey, 1000, 100, kRemoteWrite));
  EXPECT_TRUE(t.check_remote(mr.rkey, 1050, 50, kRemoteRead));
  EXPECT_TRUE(t.check_local(mr.lkey, 1000, 100));
}

TEST(MrTable, RejectsOutOfBounds) {
  MrTable t;
  const MemoryRegion mr = t.register_mr(1000, 100, kRemoteWrite);
  EXPECT_FALSE(t.check_remote(mr.rkey, 999, 10, kRemoteWrite));
  EXPECT_FALSE(t.check_remote(mr.rkey, 1050, 51, kRemoteWrite));
  EXPECT_FALSE(t.check_local(mr.lkey, 900, 10));
}

TEST(MrTable, RejectsMissingRights) {
  MrTable t;
  const MemoryRegion mr = t.register_mr(1000, 100, kRemoteRead);
  EXPECT_FALSE(t.check_remote(mr.rkey, 1000, 8, kRemoteWrite));
  EXPECT_FALSE(t.check_remote(mr.rkey, 1000, 8, kRemoteAtomic));
  EXPECT_TRUE(t.check_remote(mr.rkey, 1000, 8, kRemoteRead));
}

TEST(MrTable, RejectsUnknownKeys) {
  MrTable t;
  EXPECT_FALSE(t.check_remote(0xdead, 0, 1, kRemoteRead));
  EXPECT_FALSE(t.check_local(0xbeef, 0, 1));
}

TEST(MrTable, DeregisterRevokes) {
  MrTable t;
  const MemoryRegion mr = t.register_mr(0, 64, kRemoteWrite);
  EXPECT_TRUE(t.deregister(mr.rkey));
  EXPECT_FALSE(t.check_remote(mr.rkey, 0, 8, kRemoteWrite));
  EXPECT_FALSE(t.check_local(mr.lkey, 0, 8));
  EXPECT_FALSE(t.deregister(mr.rkey));
}

TEST(MrTable, ZeroLengthAccessInsideRegionPasses) {
  MrTable t;
  const MemoryRegion mr = t.register_mr(1000, 100, kRemoteRead);
  // 0-byte READ (gFLUSH) against the region base must pass the check.
  EXPECT_TRUE(t.check_remote(mr.rkey, 1000, 0, kRemoteRead));
}

}  // namespace
}  // namespace hyperloop::rdma
