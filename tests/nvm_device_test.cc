#include "nvm/nvm_device.h"

#include <gtest/gtest.h>

#include <cstring>

namespace hyperloop::nvm {
namespace {

// Dirty tracking is per 64 B cache line (DirtyBitmap): a 1-byte write
// dirties its whole line, and persisting any byte of a line flushes the
// whole line — the same contract CLWB/gFLUSH give on real hardware.
constexpr uint64_t kLine = DirtyBitmap::kLineBytes;

struct Fixture : ::testing::Test {
  rdma::HostMemory mem{1 << 20};
  NvmDevice nvm{mem, 64 << 10};
};

TEST_F(Fixture, WritesAreDirtyUntilPersisted) {
  const rdma::Addr a = nvm.alloc(64);
  mem.write(a, "data", 4);
  EXPECT_FALSE(nvm.is_durable(a, 4));
  EXPECT_EQ(nvm.dirty_bytes(), kLine);  // one line dirtied
  nvm.persist(a, 4);
  EXPECT_TRUE(nvm.is_durable(a, 4));
  EXPECT_EQ(nvm.dirty_bytes(), 0u);
}

TEST_F(Fixture, CrashLosesUnpersistedWrites) {
  const rdma::Addr a = nvm.alloc(64);
  mem.write(a, "AAAA", 4);
  nvm.persist(a, 4);
  mem.write(a, "BBBB", 4);  // not persisted
  nvm.crash();
  char out[5] = {};
  mem.read(a, out, 4);
  EXPECT_STREQ(out, "AAAA");
  EXPECT_EQ(nvm.crash_count(), 1u);
}

TEST_F(Fixture, CrashKeepsPersistedWrites) {
  const rdma::Addr a = nvm.alloc(64);
  mem.write(a, "keep", 4);
  nvm.persist(a, 4);
  nvm.crash();
  char out[5] = {};
  mem.read(a, out, 4);
  EXPECT_STREQ(out, "keep");
}

TEST_F(Fixture, PartialPersistSplitsFateAcrossLines) {
  // Two cache lines written; only the first is flushed. The flushed line
  // survives the crash, the other reverts.
  const rdma::Addr a = nvm.alloc(2 * kLine);
  mem.write(a, "XXXX", 4);
  mem.write(a + kLine, "YYYY", 4);
  nvm.persist(a, 4);  // only the first line
  nvm.crash();
  char out[9] = {};
  mem.read(a, out, 4);
  mem.read(a + kLine, out + 4, 4);
  EXPECT_EQ(std::memcmp(out, "XXXX", 4), 0);
  EXPECT_NE(std::memcmp(out + 4, "YYYY", 4), 0);  // lost -> old bytes (zeros)
}

TEST_F(Fixture, PersistIsLineGranular) {
  // Flushing one byte of a line flushes the whole line (CLWB semantics):
  // a neighbor within the same line becomes durable with it.
  const rdma::Addr a = nvm.alloc(kLine);
  mem.write(a, "XXXXYYYY", 8);
  nvm.persist(a, 1);
  EXPECT_TRUE(nvm.is_durable(a, 8));
  nvm.crash();
  char out[9] = {};
  mem.read(a, out, 8);
  EXPECT_EQ(std::memcmp(out, "XXXXYYYY", 8), 0);
}

TEST_F(Fixture, PersistAllFlushesEverything) {
  const rdma::Addr a = nvm.alloc(128);
  mem.write(a, "1111", 4);
  mem.write(a + 64, "2222", 4);
  EXPECT_GT(nvm.dirty_bytes(), 0u);
  nvm.persist_all();
  EXPECT_EQ(nvm.dirty_bytes(), 0u);
  nvm.crash();
  char out[5] = {};
  mem.read(a + 64, out, 4);
  EXPECT_STREQ(out, "2222");
}

TEST_F(Fixture, WritesOutsideNvmAreNotTracked) {
  // Allocate from the general arena (after the NVM range).
  const rdma::Addr a = mem.alloc(64);
  ASSERT_FALSE(nvm.contains(a));
  mem.write(a, "dram", 4);
  EXPECT_EQ(nvm.dirty_bytes(), 0u);
  EXPECT_TRUE(nvm.is_durable(a, 4));  // trivially: not NVM
}

TEST_F(Fixture, OverlappingDirtyRangesMerge) {
  const rdma::Addr a = nvm.alloc(256);
  mem.write(a, "aaaaaaaa", 8);
  mem.write(a + 4, "bbbbbbbb", 8);  // same line: no extra dirty footprint
  EXPECT_EQ(nvm.dirty_bytes(), kLine);
  mem.write(a + kLine - 1, "cc", 2);  // straddles into the second line
  EXPECT_EQ(nvm.dirty_bytes(), 2 * kLine);
}

TEST_F(Fixture, CrashIsIdempotentWhenClean) {
  const rdma::Addr a = nvm.alloc(64);
  mem.write(a, "solid", 5);
  nvm.persist_all();
  nvm.crash();
  nvm.crash();
  char out[6] = {};
  mem.read(a, out, 5);
  EXPECT_STREQ(out, "solid");
}

TEST_F(Fixture, CrashLeavesNothingDirty) {
  // The restore path must bypass write observation: reverting dirty lines
  // from the durable image must not re-mark them dirty.
  const rdma::Addr a = nvm.alloc(4096);
  for (int i = 0; i < 8; ++i) mem.write(a + 512 * i, "junk", 4);
  EXPECT_GT(nvm.dirty_bytes(), 0u);
  nvm.crash();
  EXPECT_EQ(nvm.dirty_bytes(), 0u);
  EXPECT_TRUE(nvm.is_durable(a, 4096));
}

TEST_F(Fixture, AllocStaysInRange) {
  for (int i = 0; i < 100; ++i) {
    const rdma::Addr a = nvm.alloc(256);
    EXPECT_TRUE(nvm.contains(a));
    EXPECT_TRUE(nvm.contains(a + 255));
  }
}

TEST_F(Fixture, RewriteAfterCrashWorks) {
  const rdma::Addr a = nvm.alloc(64);
  mem.write(a, "lost", 4);
  nvm.crash();
  mem.write(a, "new!", 4);
  nvm.persist(a, 4);
  nvm.crash();
  char out[5] = {};
  mem.read(a, out, 4);
  EXPECT_STREQ(out, "new!");
}

TEST_F(Fixture, BoundaryLinesTrackIndependently) {
  // First and last line of the device, plus a straddling persist.
  const uint64_t size = nvm.size();
  mem.write(nvm.base(), "head", 4);
  mem.write(nvm.base() + size - 4, "tail", 4);
  EXPECT_EQ(nvm.dirty_bytes(), 2 * kLine);
  nvm.persist(nvm.base() + size - 4, 4);
  EXPECT_EQ(nvm.dirty_bytes(), kLine);
  EXPECT_FALSE(nvm.is_durable(nvm.base(), 4));
  EXPECT_TRUE(nvm.is_durable(nvm.base() + size - kLine, kLine));
  nvm.crash();
  char out[5] = {};
  mem.read(nvm.base() + size - 4, out, 4);
  EXPECT_STREQ(out, "tail");
}

TEST(NvmDeviceShadow, CrashOfNeverPersistedFarLineReadsZero) {
  // The durable shadow is lazily zeroed too: a line at the far end of a
  // 64 MB device that was written but never persisted reverts to zero.
  rdma::HostMemory mem{(size_t{64} << 20) + (1 << 20)};
  NvmDevice nvm{mem, size_t{64} << 20};
  const rdma::Addr last = nvm.base() + nvm.size() - kLine;
  const uint64_t ones = ~uint64_t{0};
  for (uint64_t off = 0; off < kLine; off += 8) mem.write_obj(last + off, ones);
  nvm.crash();
  for (uint64_t off = 0; off < kLine; off += 8) {
    EXPECT_EQ(mem.read_obj<uint64_t>(last + off), 0u);
  }
  EXPECT_EQ(nvm.dirty_bytes(), 0u);
}

}  // namespace
}  // namespace hyperloop::nvm
