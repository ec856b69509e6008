// Receive-queue tests: RecvRing stores each posted RECV as a header cell
// plus exactly its SGE cells, so entries of different widths share one
// ring, wrap past its end and survive its growth. The NIC-level cases
// check that the in-place consumers (SEND scatter, WRITE_IMM, SRQ draws,
// RNR replay) see the same RECVs the old fixed-width slots held.
#include "rdma/recv_ring.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <string>

#include "nvm/nvm_device.h"
#include "rdma/network.h"
#include "rdma/nic.h"
#include "rdma/verbs_owner.h"
#include "sim/event_loop.h"

namespace hyperloop::rdma {
namespace {

// A RECV whose SGE fields encode (id, index), so a popped entry can be
// checked against what was posted.
RecvWqe make_recv(uint64_t id, uint32_t nsges) {
  RecvWqe w;
  w.wr_id = id;
  for (uint32_t i = 0; i < nsges; ++i) {
    w.sges.push_back(Sge{id * 1000 + i, static_cast<uint32_t>(id + i),
                         static_cast<uint32_t>(i)});
  }
  return w;
}

void expect_front(const RecvRing& ring, uint64_t id, uint32_t nsges) {
  ASSERT_FALSE(ring.empty());
  EXPECT_EQ(ring.front_wr_id(), id);
  ASSERT_EQ(ring.front_sge_count(), nsges);
  for (uint32_t i = 0; i < nsges; ++i) {
    const Sge& s = ring.front_sge(i);
    EXPECT_EQ(s.addr, id * 1000 + i) << "RECV " << id << " SGE " << i;
    EXPECT_EQ(s.length, id + i);
    EXPECT_EQ(s.lkey, i);
  }
}

TEST(RecvRing, WrapsWithMixedSgeCounts) {
  // Entries of 1, 2, 5, 13 and 26 cells at a steady depth of 6 RECVs:
  // after the first few posts the ring stops growing, so later entries
  // start at every offset and most wrap past the buffer end mid-list.
  const uint32_t widths[] = {0, 1, 4, 12, SgeList::kMaxSges};
  RecvRing ring;
  std::deque<std::pair<uint64_t, uint32_t>> posted;
  for (uint64_t id = 0; id < 500; ++id) {
    const uint32_t n = widths[(id * 3) % 5];
    ring.push_back(make_recv(id, n));
    posted.emplace_back(id, n);
    if (posted.size() > 6) {
      expect_front(ring, posted.front().first, posted.front().second);
      ring.pop_front();
      posted.pop_front();
    }
    ASSERT_EQ(ring.size(), posted.size());
  }
  while (!posted.empty()) {
    expect_front(ring, posted.front().first, posted.front().second);
    ring.pop_front();
    posted.pop_front();
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(RecvRing, GrowsWhileWrapped) {
  // Move the head off zero, then post far past the capacity: growth must
  // unwrap the live entries in FIFO order.
  RecvRing ring;
  for (uint64_t id = 0; id < 3; ++id) ring.push_back(make_recv(id, 4));
  ring.pop_front();
  ring.pop_front();
  for (uint64_t id = 3; id < 200; ++id) {
    ring.push_back(make_recv(id, static_cast<uint32_t>(id % 26)));
  }
  expect_front(ring, 2, 4);
  ring.pop_front();
  for (uint64_t id = 3; id < 200; ++id) {
    expect_front(ring, id, static_cast<uint32_t>(id % 26));
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RecvRing, ZeroSgePostsTakeOneCellEach) {
  RecvRing ring;
  for (uint64_t id = 0; id < 100; ++id) {
    RecvWqe w{};
    w.wr_id = id;
    ring.push_back(w);
  }
  EXPECT_EQ(ring.size(), 100u);
  for (uint64_t id = 0; id < 100; ++id) {
    expect_front(ring, id, 0);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SgeList, CopyTakesOnlyPostedEntries) {
  RecvWqe w = make_recv(9, 3);
  const RecvWqe copy = w;
  ASSERT_EQ(copy.sges.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(copy.sges.entries[i].addr, 9000u + i);
  }
  EXPECT_TRUE(RecvWqe{}.sges.empty());
}

// Two NICs, one RC connection a -> b; b's region is local-writable.
struct RecvFixture : ::testing::Test {
  sim::EventLoop loop;
  Network net{loop, Network::Config{}};
  HostMemory mem_a{1 << 20}, mem_b{1 << 20};
  nvm::NvmDevice nvm_a{mem_a, 64 << 10}, nvm_b{mem_b, 64 << 10};
  Nic a{loop, net, mem_a, &nvm_a};
  Nic b{loop, net, mem_b, &nvm_b};

  CompletionQueue* cq_a = a.create_cq();
  CompletionQueue* cq_b = b.create_cq();
  QueuePair* qa = a.create_qp(cq_a, nullptr, 256);
  QueuePair* qb = b.create_qp(nullptr, cq_b, 64);

  Addr src = 0, dst = 0;
  MemoryRegion mr_a{}, mr_b{};

  void SetUp() override {
    a.connect(qa, b.id(), qb->qpn);
    b.connect(qb, a.id(), qa->qpn);
    src = mem_a.alloc(4096);
    dst = mem_b.alloc(4096);
    mr_a = a.register_mr(src, 4096, kLocalWrite);
    mr_b = b.register_mr(dst, 4096, kLocalWrite | kRemoteWrite);
  }

  /// A RECV scattering into `n` consecutive `len`-byte pieces at dst+off.
  RecvWqe scatter_recv(uint64_t id, uint32_t n, uint32_t len,
                       uint64_t off = 0) {
    RecvWqe w;
    w.wr_id = id;
    for (uint32_t i = 0; i < n; ++i) {
      w.sges.push_back(Sge{dst + off + uint64_t{i} * len, len, mr_b.lkey});
    }
    return w;
  }

  void send(const std::string& s, uint64_t wr_id = 0) {
    mem_a.write(src, s.data(), s.size());
    a.post_send(qa, make_send(src, mr_a.lkey,
                              static_cast<uint32_t>(s.size()), wr_id));
  }

  std::string read_b(uint64_t off, size_t n) {
    std::string out(n, '\0');
    mem_b.read(dst + off, out.data(), n);
    return out;
  }
};

TEST_F(RecvFixture, ScatterAcrossWrappedRingOfMixedWidths) {
  // RECVs of 1, 4, 12 and 25 SGEs, consumed and re-posted so the ring
  // wraps several times; each SEND's bytes must land across exactly its
  // RECV's pieces.
  const uint32_t widths[] = {1, 4, 12, SgeList::kMaxSges};
  for (uint64_t id = 0; id < 4; ++id) {
    b.post_recv(qb, scatter_recv(id, widths[id], 4, id * 128));
  }
  for (uint64_t id = 0; id < 40; ++id) {
    const uint32_t n = widths[id % 4];
    std::string msg(n * 4, '\0');
    for (size_t i = 0; i < msg.size(); ++i) {
      msg[i] = static_cast<char>('a' + (id + i) % 26);
    }
    send(msg);
    loop.run();
    Cqe c;
    ASSERT_TRUE(cq_b->poll(&c));
    EXPECT_EQ(c.wr_id, id);
    EXPECT_EQ(c.status, CqStatus::kSuccess);
    EXPECT_EQ(c.byte_len, msg.size());
    EXPECT_EQ(read_b((id % 4) * 128, msg.size()), msg) << "SEND " << id;
    b.post_recv(qb, scatter_recv(id + 4, widths[(id + 4) % 4], 4,
                                 ((id + 4) % 4) * 128));
  }
  EXPECT_EQ(b.counters().rnr_stalls, 0u);
}

TEST_F(RecvFixture, ZeroSgeRecvDeliversImmediateAndEmptySend) {
  // WRITE_IMM consumes a zero-SGE RECV for its immediate; a 0-byte SEND
  // completes into one; a SEND with payload has nowhere to land.
  b.post_recv(qb, RecvWqe{});
  RecvWqe second{};
  second.wr_id = 2;
  b.post_recv(qb, second);
  RecvWqe third{};
  third.wr_id = 3;
  b.post_recv(qb, third);

  mem_a.write(src, "imm!", 4);
  a.post_send(qa, make_write_imm(src, mr_a.lkey, dst, mr_b.rkey, 4, 77, 1));
  a.post_send(qa, make_send(src, mr_a.lkey, 0, 2));
  a.post_send(qa, make_send(src, mr_a.lkey, 4, 3));
  loop.run();

  Cqe c;
  ASSERT_TRUE(cq_b->poll(&c));
  EXPECT_EQ(c.wr_id, 0u);
  EXPECT_TRUE(c.has_imm);
  EXPECT_EQ(c.imm, 77u);
  EXPECT_EQ(read_b(0, 4), "imm!");
  ASSERT_TRUE(cq_b->poll(&c));
  EXPECT_EQ(c.wr_id, 2u);
  EXPECT_EQ(c.status, CqStatus::kSuccess);
  EXPECT_EQ(c.byte_len, 0u);
  ASSERT_TRUE(cq_b->poll(&c));
  EXPECT_EQ(c.wr_id, 3u);
  EXPECT_EQ(c.status, CqStatus::kLocalProtectionError);
  EXPECT_EQ(qb->recv_queue.size(), 0u);
}

TEST_F(RecvFixture, PayloadLargerThanScatterListFails) {
  // 3 x 4 bytes of room for a 13-byte SEND: the 12 that fit land, the
  // RECV completes kLocalProtectionError and the sender sees the NAK.
  b.post_recv(qb, scatter_recv(5, 3, 4));
  send("0123456789ABC", 9);
  loop.run();
  Cqe c;
  ASSERT_TRUE(cq_b->poll(&c));
  EXPECT_EQ(c.wr_id, 5u);
  EXPECT_EQ(c.status, CqStatus::kLocalProtectionError);
  EXPECT_EQ(c.byte_len, 13u);
  EXPECT_EQ(read_b(0, 12), "0123456789AB");
  Cqe ack;
  ASSERT_TRUE(cq_a->poll(&ack));
  EXPECT_EQ(ack.wr_id, 9u);
  EXPECT_EQ(ack.status, CqStatus::kLocalProtectionError);
}

TEST_F(RecvFixture, RnrParkedSendReplaysIntoLaterMultiSgeRecv) {
  // Wrap the ring first, then let a SEND arrive with no RECV posted: it
  // parks, and the next post_recv replays it through the new entry.
  for (uint64_t id = 0; id < 10; ++id) {
    b.post_recv(qb, scatter_recv(id, 12, 2));
    send("abcdefghijklmnopqrstuvwx");
    loop.run();
  }
  Cqe c;
  while (cq_b->poll(&c)) {
  }
  send("parked-payload!!");
  loop.run();
  EXPECT_EQ(b.counters().rnr_stalls, 1u);
  EXPECT_FALSE(cq_b->poll(&c));

  b.post_recv(qb, scatter_recv(99, 4, 4, 512));
  loop.run();
  ASSERT_TRUE(cq_b->poll(&c));
  EXPECT_EQ(c.wr_id, 99u);
  EXPECT_EQ(c.status, CqStatus::kSuccess);
  EXPECT_EQ(read_b(512, 16), "parked-payload!!");
  EXPECT_TRUE(qb->recv_queue.empty());
}

TEST(SrqRecvRing, DrawsStayFifoAcrossMembers) {
  // Two clients SEND alternately through two QPs sharing one SRQ; the
  // SRQ hands out its RECVs (of differing widths) strictly in post order
  // whichever member the SEND arrived on.
  sim::EventLoop loop;
  Network net{loop, Network::Config{}};
  HostMemory mem_s{1 << 20}, mem_1{1 << 20}, mem_2{1 << 20};
  nvm::NvmDevice nvm_s{mem_s, 64 << 10};
  Nic srv{loop, net, mem_s, &nvm_s};
  Nic c1{loop, net, mem_1, nullptr};
  Nic c2{loop, net, mem_2, nullptr};
  CompletionQueue* recv_cq = srv.create_cq();
  SharedReceiveQueue* srq = srv.create_srq();
  QueuePair* q1 = srv.create_qp(nullptr, recv_cq, 16);
  QueuePair* q2 = srv.create_qp(nullptr, recv_cq, 16);
  srv.attach_srq(q1, srq);
  srv.attach_srq(q2, srq);
  CompletionQueue* cq1 = c1.create_cq();
  CompletionQueue* cq2 = c2.create_cq();
  QueuePair* qc1 = c1.create_qp(cq1, nullptr, 64);
  QueuePair* qc2 = c2.create_qp(cq2, nullptr, 64);
  connect_rc(c1, qc1, srv, q1);
  connect_rc(c2, qc2, srv, q2);

  const Addr buf = mem_s.alloc(4096);
  const MemoryRegion mr = srv.register_mr(buf, 4096, kLocalWrite);
  const uint32_t widths[] = {1, 4, 12, 0, SgeList::kMaxSges, 2};
  for (uint64_t id = 0; id < 12; ++id) {
    RecvWqe w;
    w.wr_id = id;
    for (uint32_t i = 0; i < widths[id % 6]; ++i) {
      w.sges.push_back(Sge{buf + id * 256 + i * 8, 8, mr.lkey});
    }
    srv.post_srq_recv(srq, w);
  }
  const Addr s1 = mem_1.alloc(64);
  const Addr s2 = mem_2.alloc(64);
  for (uint64_t k = 0; k < 12; ++k) {
    if (k % 2 == 0) {
      c1.post_send(qc1, make_send(s1, 0, 0, k));
    } else {
      c2.post_send(qc2, make_send(s2, 0, 0, k));
    }
    loop.run();  // one SEND at a time: arrival order == k
    Cqe c;
    ASSERT_TRUE(recv_cq->poll(&c));
    EXPECT_EQ(c.wr_id, k);
    EXPECT_EQ(c.qpn, k % 2 == 0 ? q1->qpn : q2->qpn);
    EXPECT_EQ(srq->queue.size(), 11 - k);
  }
}

}  // namespace
}  // namespace hyperloop::rdma
