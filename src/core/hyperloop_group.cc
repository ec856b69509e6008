#include "core/hyperloop_group.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hyperloop::core {

using rdma::Addr;
using rdma::Opcode;
using rdma::RecvWqe;
using rdma::Sge;
using rdma::Wqe;
using rdma::WqeDescriptor;

namespace {

// Placeholder for a deferred-ownership WQE: contents are irrelevant (the
// client's patch overwrites the descriptor), only `signaled` matters for
// the completion counting that drives WAIT thresholds and refill.
Wqe placeholder() {
  Wqe w = rdma::make_nop();
  w.signaled = 1;
  return w;
}

}  // namespace

void HyperLoopGroup::Config::validate() const {
  if (max_inflight == 0 || max_inflight > ring_slots / 2) {
    std::fprintf(stderr,
                 "HyperLoopGroup::Config: max_inflight=%u violates "
                 "1 <= max_inflight <= ring_slots/2 (ring_slots=%u); the "
                 "in-flight window must leave re-arm headroom\n",
                 max_inflight, ring_slots);
    std::abort();
  }
}

HyperLoopGroup::HyperLoopGroup(Server& client, std::vector<Server*> replicas,
                               Config cfg)
    : client_(client), cfg_(cfg) {
  assert(!replicas.empty());
  cfg_.validate();
  replicas_.resize(replicas.size());
  for (size_t i = 0; i < replicas.size(); ++i) replicas_[i].server = replicas[i];

  // Client-local state.
  client_region_ = client_.nvm().alloc(cfg_.region_size, 4096);
  client_zeros_ = client_.mem().alloc(result_bytes(), 64);
  cas_scratch_.resize(replicas_.size());

  for (size_t i = 0; i < replicas_.size(); ++i) setup_replica(i);
  client_chain_.reserve(kNumPrims);
  for (int p = 0; p < kNumPrims; ++p) {
    client_chain_.emplace_back(cfg_.max_inflight);
    setup_client_chain(static_cast<Prim>(p));
  }

  // Wire the chain: client -> R0 -> ... -> R{G-1} -> client.
  for (int pi = 0; pi < kNumPrims; ++pi) {
    const auto p = static_cast<Prim>(pi);
    ClientChain& cc = client_chain_[pi];
    rdma::connect_rc(nic(client_), cc.qp_down, nic(*replicas_.front().server),
                     replicas_.front().chain[pi].qp_prev);
    for (size_t i = 0; i + 1 < replicas_.size(); ++i) {
      rdma::connect_rc(nic(*replicas_[i].server), replicas_[i].chain[pi].qp_next,
                       nic(*replicas_[i + 1].server),
                       replicas_[i + 1].chain[pi].qp_prev);
    }
    rdma::connect_rc(nic(*replicas_.back().server),
                     replicas_.back().chain[pi].qp_next, nic(client_),
                     cc.qp_up);

    // Pre-arm the full ring on every replica.
    for (uint64_t s = 0; s < cfg_.ring_slots; ++s) {
      for (size_t i = 0; i < replicas_.size(); ++i) rearm_slot(i, p, s);
    }
    for (size_t i = 0; i < replicas_.size(); ++i) {
      replicas_[i].chain[pi].next_rearm = cfg_.ring_slots;
    }

    // Client ack RECV ring + event-driven ack handling.
    for (uint32_t s = 0; s < cfg_.max_inflight * 2; ++s) {
      nic(client_).post_recv(cc.qp_up, RecvWqe{});
    }
    cc.cq_up->set_notify([this, p] { on_ack_cqe(p); });
    cc.cq_up->arm_notify();
  }

  for (size_t i = 0; i < replicas_.size(); ++i) start_refill(i);
}

HyperLoopGroup::~HyperLoopGroup() { stop(); }

void HyperLoopGroup::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (ClientChain& cc : client_chain_) aborted_ops_ += cc.window.abort_all();
  verbs_.release();
}

// ------------------------------------------------------------------ setup --

void HyperLoopGroup::setup_replica(size_t idx) {
  Replica& r = replicas_[idx];
  rdma::Nic& rnic = nic(*r.server);
  rdma::HostMemory& mem = r.server->mem();

  r.data_base = r.server->nvm().alloc(cfg_.region_size, 4096);
  r.data_mr = rnic.register_mr(
      r.data_base, cfg_.region_size,
      rdma::kRemoteRead | rdma::kRemoteWrite | rdma::kRemoteAtomic |
          rdma::kLocalWrite);

  const size_t arena_start = mem.used();

  for (int pi = 0; pi < kNumPrims; ++pi) {
    const auto p = static_cast<Prim>(pi);
    ReplicaChain& c = r.chain[pi];

    c.staging_slot =
        desc_count(p) * kDescBytes *
        static_cast<uint32_t>(replicas_.size() > 0 ? replicas_.size() - 1 : 0);
    if (c.staging_slot == 0) c.staging_slot = kDescBytes;  // 1-replica groups
    c.staging_len = desc_count(p) * kDescBytes *
                    static_cast<uint32_t>(replicas_.size() - 1 - idx);
    c.staging_base = mem.alloc(uint64_t{c.staging_slot} * cfg_.ring_slots, 64);
    if (p == Prim::kCas) {
      c.result_base =
          mem.alloc(uint64_t{result_bytes()} * cfg_.ring_slots, 64);
    }

    // Chain CQs are consumed only through WAIT counters, never polled:
    // counting-only (capacity 0) so wrapped rings don't hoard dead CQEs.
    c.cq_recv_prev = verbs_.create_cq(rnic, 0);
    c.cq_send_next = verbs_.create_cq(rnic, 0);
    c.qp_prev =
        verbs_.create_qp(rnic, nullptr, c.cq_recv_prev, cfg_.ring_slots);
    c.qp_next = verbs_.create_qp(rnic, c.cq_send_next, nullptr,
                                 cfg_.ring_slots * next_wqes(p));
    if (loop_wqes(p) > 0) {
      c.cq_loop = verbs_.create_cq(rnic, 0);
      c.qp_loop = verbs_.create_loopback_qp(rnic, c.cq_loop,
                                            cfg_.ring_slots * loop_wqes(p));
    }
  }

  // One local-write MR spanning everything allocated above (staging,
  // result rings, and the WQE rings inside the QPs): the registration that
  // makes work queues writable by inbound scatters — with bounds checks.
  const size_t arena_end = mem.used();
  const rdma::MemoryRegion ring_mr = rnic.register_mr(
      arena_start, arena_end - arena_start, rdma::kLocalWrite);
  for (int pi = 0; pi < kNumPrims; ++pi) {
    r.chain[pi].ring_lkey = ring_mr.lkey;
  }
}

void HyperLoopGroup::setup_client_chain(Prim p) {
  ClientChain& cc = chain(p);
  rdma::Nic& cnic = nic(client_);
  rdma::HostMemory& mem = client_.mem();

  cc.staging_slot =
      desc_count(p) * kDescBytes * static_cast<uint32_t>(replicas_.size());
  cc.staging_base =
      mem.alloc(uint64_t{cc.staging_slot} * cfg_.max_inflight * 2, 64);
  cc.ack_base =
      mem.alloc(uint64_t{result_bytes()} * cfg_.max_inflight * 2, 64);
  cc.ack_mr = cnic.register_mr(
      cc.ack_base, uint64_t{result_bytes()} * cfg_.max_inflight * 2,
      rdma::kRemoteWrite | rdma::kLocalWrite);

  // The send side never polls: its CQ is counting-only.
  rdma::CompletionQueue* cq_down = verbs_.create_cq(cnic, 0);
  cc.cq_up = verbs_.create_cq(cnic);  // polled by on_ack_cqe for the imm seq
  // Room for a full credit window of staged submissions: extent WRITEs +
  // FLUSH + metadata SEND per op (kWriteV stages the most per op).
  cc.qp_down = verbs_.create_qp(cnic, cq_down, nullptr,
                                cfg_.max_inflight * (desc_count(p) + 2) + 16);
  cc.qp_up = verbs_.create_qp(cnic, nullptr, cc.cq_up, 16);
}

void HyperLoopGroup::rearm_slot(size_t replica, Prim p, uint64_t seq) {
  Replica& r = replicas_[replica];
  ReplicaChain& c = r.chain[static_cast<int>(p)];
  rdma::Nic& rnic = nic(*r.server);
  const uint32_t S = cfg_.ring_slots;

  RecvWqe recv;
  auto desc_sge = [&](rdma::QueuePair* qp, uint64_t wqe_seq) {
    // Patch lands on the WqeDescriptor at the start of the slot.
    recv.sges.push_back(Sge{qp->slot_addr(wqe_seq), kDescBytes, c.ring_lkey});
  };

  // Each queue's slot WQEs are staged together and doorbelled once — the
  // off-path refill driver batches its posts like a real ibv_post_send
  // with a linked WR list.
  const auto wait_recv = rdma::make_wait(c.cq_recv_prev->id(), seq + 1);
  if (is_write(p)) {
    // qp_next: [WAIT][WRITE x width][FLUSH][SEND].
    const uint64_t n = next_wqes(p);
    rnic.stage_send(c.qp_next, wait_recv);
    for (uint64_t j = 1; j < n; ++j) {
      rnic.stage_send(c.qp_next, placeholder(), /*deferred=*/true);
    }
    rnic.ring_doorbell(c.qp_next);
    for (uint64_t j = 1; j < n; ++j) desc_sge(c.qp_next, n * seq + j);
  } else {
    // qp_loop: [WAIT][COPY][FLUSH] or [WAIT][CAS]; qp_next then waits for
    // the loop's completions: [WAIT][SEND].
    const uint64_t n = loop_wqes(p);
    rnic.stage_send(c.qp_loop, wait_recv);
    for (uint64_t j = 1; j < n; ++j) {
      rnic.stage_send(c.qp_loop, placeholder(), /*deferred=*/true);
    }
    rnic.ring_doorbell(c.qp_loop);
    rnic.stage_send(c.qp_next, rdma::make_wait(c.cq_loop->id(),
                                               loop_completions(p) * (seq + 1)));
    rnic.stage_send(c.qp_next, placeholder(), /*deferred=*/true);  // SEND
    rnic.ring_doorbell(c.qp_next);
    for (uint64_t j = 1; j < n; ++j) desc_sge(c.qp_loop, n * seq + j);
    desc_sge(c.qp_next, 2 * seq + 1);
  }

  if (c.staging_len > 0) {
    recv.sges.push_back(Sge{c.staging_base + (seq % S) * c.staging_slot,
                            c.staging_len, c.ring_lkey});
  }
  if (p == Prim::kCas) {
    recv.sges.push_back(Sge{c.result_base + (seq % S) * result_bytes(),
                            result_bytes(), c.ring_lkey});
  }
  recv.wr_id = seq;
  rnic.post_recv(c.qp_prev, std::move(recv));
}

void HyperLoopGroup::start_refill(size_t replica) {
  Replica& r = replicas_[replica];
  if (cfg_.refill_via_cpu) {
    r.refill_pid = r.server->sched().create_process(
        r.server->name() + "-hl-refill");
  }
  refill_tick(replica);
}

void HyperLoopGroup::refill_tick(size_t replica) {
  Replica& r = replicas_[replica];
  r.server->loop().schedule_after(cfg_.refill_period, [this, replica] {
    if (stopped_) return;
    Replica& rr = replicas_[replica];
    if (cfg_.refill_via_cpu) {
      rr.server->sched().submit(
          rr.refill_pid, cfg_.refill_cpu, [this, replica] {
            if (stopped_) return;
            const uint32_t rearmed = do_refill(replica);
            if (rearmed > 0) {
              // Charge the per-slot driver work (posts + RECVs), still off
              // the critical path.
              replicas_[replica].server->sched().submit(
                  replicas_[replica].refill_pid,
                  cfg_.refill_cpu_per_slot *
                      static_cast<sim::Duration>(rearmed),
                  [this, replica] {
                    if (!stopped_) refill_tick(replica);
                  },
                  /*fresh_wakeup=*/false);
            } else {
              refill_tick(replica);
            }
          });
    } else {
      do_refill(replica);
      refill_tick(replica);
    }
  });
}

uint32_t HyperLoopGroup::do_refill(size_t replica) {
  Replica& r = replicas_[replica];
  uint32_t rearmed = 0;
  for (int pi = 0; pi < kNumPrims; ++pi) {
    const auto p = static_cast<Prim>(pi);
    ReplicaChain& c = r.chain[pi];
    while (true) {
      const uint64_t finished_slot = c.next_rearm - cfg_.ring_slots;
      if (c.cq_send_next->completion_count() <
          uint64_t{next_completions(p)} * (finished_slot + 1)) {
        break;
      }
      rearm_slot(replica, p, c.next_rearm);
      ++c.next_rearm;
      ++rearmed;
    }
  }
  return rearmed;
}

// ---------------------------------------------------------- client issue --

rdma::WqeDescriptor HyperLoopGroup::nop_desc() const {
  WqeDescriptor d;
  d.opcode = static_cast<uint8_t>(Opcode::kNop);
  d.active = 1;
  return d;
}

uint32_t HyperLoopGroup::stage_blob(Prim p, uint64_t seq, const Op& op) {
  const size_t G = replicas_.size();
  const ClientChain& cc = chain(p);
  const uint32_t nd = desc_count(p);

  WqeDescriptor d[kMaxExtents + 2];
  for (size_t i = 0; i < G; ++i) {
    const Replica& r = replicas_[i];
    const ReplicaChain& c = r.chain[static_cast<int>(p)];
    const bool tail = i + 1 == G;
    // What this hop sends last: the rest of the blob to the next hop, or
    // at the tail a 0-byte WRITE_WITH_IMM that acks the client.
    const WqeDescriptor out =
        tail ? rdma::make_write_imm(0, 0, ack_addr(cc, seq), cc.ack_mr.rkey,
                                    0, static_cast<uint32_t>(seq))
                   .d
             : rdma::make_send(
                   c.staging_base + (seq % cfg_.ring_slots) * c.staging_slot,
                   c.ring_lkey, c.staging_len)
                   .d;
    switch (p) {
      case Prim::kWrite:
      case Prim::kWriteV: {
        if (tail) {
          // The tail only acks: its data and durability came with the
          // previous hop's WRITEs and FLUSH (the client's, when G == 1).
          d[0] = out;
          for (uint32_t j = 1; j < nd; ++j) d[j] = nop_desc();
          break;
        }
        const Replica& next = replicas_[i + 1];
        const uint32_t width = write_width(p);
        for (uint32_t j = 0; j < width; ++j) {
          if (j >= op.extents.size()) {
            d[j] = nop_desc();
            continue;
          }
          const Extent& e = op.extents[j];
          d[j] = rdma::make_write(r.data_base + e.offset, 0,
                                  next.data_base + e.offset, next.data_mr.rkey,
                                  e.len)
                     .d;
          // The forward hop re-sends bytes the upstream WRITE just landed
          // in this replica's region: borrow them instead of re-gathering.
          // The slot's own FLUSH/SEND behind it acks the WRITE cumulatively.
          d[j].flags |= rdma::kWqeFlagZeroCopy | rdma::kWqeFlagAckElide;
        }
        d[width] = op.flush
                       ? rdma::make_flush(next.data_base, next.data_mr.rkey).d
                       : nop_desc();
        d[width + 1] = out;
        break;
      }
      case Prim::kMemcpy:
        d[0] = rdma::make_local_copy(r.data_base + op.offset,
                                     r.data_base + op.dst, op.len)
                   .d;
        d[1] = op.flush ? rdma::make_flush(0, 0).d : nop_desc();
        d[2] = out;
        break;
      case Prim::kCas: {
        const Addr result_slot =
            c.result_base + (seq % cfg_.ring_slots) * result_bytes();
        // Execute map cleared: the pre-posted CAS becomes a NOP (§4.2).
        d[0] = op.exec.test(i)
                   ? rdma::make_cas(result_slot + 8 * i, c.ring_lkey,
                                    r.data_base + op.offset, r.data_mr.rkey,
                                    op.expected, op.desired)
                         .d
                   : nop_desc();
        d[1] = out;
        d[1].aux_addr = result_slot;
        d[1].aux_length = result_bytes();
        break;
      }
    }
    for (uint32_t j = 0; j < nd; ++j) d[j].active = 1;
    client_.mem().write(staging_addr(cc, seq) + i * nd * kDescBytes, d,
                        nd * kDescBytes);
  }
  return static_cast<uint32_t>(nd * kDescBytes * G);
}

void HyperLoopGroup::on_ack_cqe(Prim p) {
  ClientChain& cc = chain(p);
  rdma::Cqe cqe;
  while (cc.cq_up->poll(&cqe)) {
    if (!cqe.has_imm) continue;
    OpWindow<Op>::Slot* slot = cc.window.lookup(cqe.imm);
    if (slot == nullptr) continue;
    cc.window.retire(*slot);
    nic(client_).post_recv(cc.qp_up, RecvWqe{});
    if (p == Prim::kCas) {
      CasDone handler = std::move(slot->cas_done);
      client_.mem().read(ack_addr(cc, cqe.imm), cas_scratch_.data(),
                         result_bytes());
      handler(CasResult(cas_scratch_.data(), replicas_.size()));
    } else {
      Done handler = std::move(slot->done);
      if (handler) handler();
    }
    if (stopped_) return;  // the callback tore the group down
    cc.window.replay([this, p](Op& next) { issue(p, next); });
  }
  cc.cq_up->arm_notify();
}

// ------------------------------------------------------------- primitives --

void HyperLoopGroup::submit(Prim p, Op& op) {
  assert(!stopped_ && "primitive on a stopped group");
  if (chain(p).window.admit(op)) issue(p, op);
}

void HyperLoopGroup::issue(Prim p, Op& op) {
  ClientChain& cc = chain(p);
  rdma::Nic& cnic = nic(client_);
  const uint64_t seq = cc.window.claim(op);
  switch (p) {
    case Prim::kWrite:
    case Prim::kWriteV: {
      if (p == Prim::kWrite) {
        ++counters_.gwrites;
      } else {
        ++counters_.gwritevs;
        counters_.gwritev_extents += op.extents.size();
      }
      // Every extent's data WRITE to the first replica and one trailing
      // FLUSH; the metadata SEND behind them (same QP, same doorbell)
      // acknowledges the WRITEs cumulatively, so they elide their ACKs.
      const Replica& r0 = replicas_.front();
      for (const Extent& e : op.extents) {
        counters_.bytes_replicated += uint64_t{e.len} * replicas_.size();
        Wqe data = rdma::make_write(client_region_ + e.offset, 0,
                                    r0.data_base + e.offset, r0.data_mr.rkey,
                                    e.len);
        data.d.flags |= rdma::kWqeFlagAckElide;
        cnic.stage_send(cc.qp_down, data);
      }
      if (op.flush) {
        cnic.stage_send(cc.qp_down,
                        rdma::make_flush(r0.data_base, r0.data_mr.rkey));
      }
      break;
    }
    case Prim::kMemcpy:
      ++counters_.gmemcpys;
      // The client's copy of the region must stay in sync: perform the
      // same copy locally (the client is the head of the chain).
      client_.mem().copy(client_region_ + op.dst, client_region_ + op.offset,
                         op.len);
      client_.nvm().persist(client_region_ + op.dst, op.len);
      break;
    case Prim::kCas:
      ++counters_.gcas;
      break;
  }
  // The metadata SEND that drives the offloaded chain, under the same
  // doorbell as the data WRITEs: one chain traversal per op.
  Wqe send = rdma::make_send(staging_addr(cc, seq), 0, stage_blob(p, seq, op));
  if (p == Prim::kCas) {
    // Seed the result map with zeros so excluded replicas report 0.
    send.d.aux_addr = client_zeros_;
    send.d.aux_length = result_bytes();
  }
  cnic.stage_send(cc.qp_down, send);
  cnic.ring_doorbell(cc.qp_down);
}

void HyperLoopGroup::gwrite(uint64_t offset, uint32_t len, bool flush,
                            Done done) {
  assert(offset + len <= cfg_.region_size);
  Op op{.extents = {Extent{offset, len}}, .flush = flush,
        .done = std::move(done)};
  submit(Prim::kWrite, op);
}

void HyperLoopGroup::gwritev(const ExtentVec& extents, bool flush,
                             Done done) {
  assert(!extents.empty());
#ifndef NDEBUG
  for (const Extent& e : extents) {
    assert(e.offset + e.len <= cfg_.region_size);
  }
#endif
  Op op{.extents = extents, .flush = flush, .done = std::move(done)};
  submit(Prim::kWriteV, op);
}

void HyperLoopGroup::gmemcpy(uint64_t src_offset, uint64_t dst_offset,
                             uint32_t len, bool flush, Done done) {
  assert(src_offset + len <= cfg_.region_size);
  assert(dst_offset + len <= cfg_.region_size);
  Op op{.offset = src_offset, .dst = dst_offset, .len = len, .flush = flush,
        .done = std::move(done)};
  submit(Prim::kMemcpy, op);
}

void HyperLoopGroup::gcas(uint64_t offset, uint64_t expected,
                          uint64_t desired, ExecMap exec_map, CasDone done) {
  assert(offset + 8 <= cfg_.region_size);
  Op op{.offset = offset, .expected = expected, .desired = desired,
        .exec = exec_map, .cas_done = std::move(done)};
  submit(Prim::kCas, op);
}

void HyperLoopGroup::gflush(Done done) {
  ++counters_.gflushes;
  gwrite(0, 0, /*flush=*/true, std::move(done));
}

// ------------------------------------------------------------ data access --

void HyperLoopGroup::client_store(uint64_t offset, const void* src,
                                  uint32_t len) {
  assert(offset + len <= cfg_.region_size);
  client_.mem().write(client_region_ + offset, src, len);
  client_.nvm().persist(client_region_ + offset, len);
}

void HyperLoopGroup::client_load(uint64_t offset, void* dst,
                                 uint32_t len) const {
  client_.mem().read(client_region_ + offset, dst, len);
}

void HyperLoopGroup::replica_load(size_t i, uint64_t offset, void* dst,
                                  uint32_t len) const {
  const Replica& r = replicas_.at(i);
  r.server->mem().read(r.data_base + offset, dst, len);
}

rdma::Addr HyperLoopGroup::replica_region_base(size_t i) const {
  return replicas_.at(i).data_base;
}

uint64_t HyperLoopGroup::total_rnr_stalls() const {
  uint64_t n = 0;
  for (const Replica& r : replicas_) n += nic(*r.server).counters().rnr_stalls;
  return n;
}

}  // namespace hyperloop::core
