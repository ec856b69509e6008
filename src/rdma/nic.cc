#include "rdma/nic.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace hyperloop::rdma {

Nic::Nic(sim::EventLoop& loop, Network& net, HostMemory& mem,
         nvm::NvmDevice* nvm, Config cfg)
    : loop_(loop), net_(net), mem_(mem), nvm_(nvm), cfg_(cfg) {
  id_ = net_.attach([this](Packet&& p) { on_packet(std::move(p)); });
}

CompletionQueue* Nic::create_cq(size_t capacity) {
  const uint32_t id = cqs_.alloc();
  auto cq = std::make_unique<CompletionQueue>(id, capacity);
  cq->set_counter_watcher([this, id](uint64_t) { on_cq_advance(id); });
  auto* ptr = cq.get();
  cqs_.install(id, std::move(cq));
  return ptr;
}

void Nic::destroy_cq(CompletionQueue* cq) {
  assert(cq != nullptr);
  assert(cq->wait_head_qpn == 0 && "destroying a CQ with blocked waiters");
  cqs_.erase(cq->id());
}

QueuePair* Nic::create_qp(CompletionQueue* send_cq, CompletionQueue* recv_cq,
                          uint32_t sq_slots) {
  if (sq_slots == 0) sq_slots = cfg_.default_sq_slots;
  auto qp = std::make_unique<QueuePair>();
  qp->qpn = qps_.alloc();
  qp->nic = this;
  qp->sq_slots = sq_slots;
  qp->sq_base = mem_.alloc(uint64_t{sq_slots} * sizeof(Wqe), 64);
  qp->send_cq = send_cq;
  qp->recv_cq = recv_cq;
  auto* ptr = qp.get();
  qps_.install(ptr->qpn, std::move(qp));
  return ptr;
}

QueuePair* Nic::create_loopback_qp(CompletionQueue* send_cq,
                                   uint32_t sq_slots) {
  QueuePair* qp = create_qp(send_cq, nullptr, sq_slots);
  qp->loopback = true;
  qp->connected = true;
  qp->remote_nic = id_;
  qp->remote_qpn = qp->qpn;
  return qp;
}

void Nic::connect(QueuePair* qp, NicId remote_nic, uint32_t remote_qpn) {
  assert(!qp->loopback);
  qp->connected = true;
  qp->remote_nic = remote_nic;
  qp->remote_qpn = remote_qpn;
}

void Nic::destroy_qp(QueuePair* q) {
  assert(q != nullptr);
  if (q->retry_timer != 0) {
    loop_.cancel(q->retry_timer);
    q->retry_timer = 0;
  }
  if (q->waiting_cqn != 0) unlink_waiter(q);
  q->on_dma_watch = false;  // dma_watch_ entry is cleaned up lazily
  if (q->srq != nullptr) detach_srq(q);
  if (q->ctx_cache_slot >= 0) {
    qp_cache_slots_[static_cast<size_t>(q->ctx_cache_slot)] = QpCacheSlot{};
    q->ctx_cache_slot = -1;
  }
  qps_.erase(q->qpn);
}

uint64_t Nic::post_send(QueuePair* qp, Wqe wqe, bool deferred_ownership) {
  const uint64_t seq = stage_send(qp, wqe, deferred_ownership);
  ring_doorbell(qp);
  return seq;
}

uint64_t Nic::stage_send(QueuePair* qp, Wqe wqe, bool deferred_ownership) {
  assert(qp->sq_depth() < qp->sq_slots && "send queue overflow");
  wqe.d.active = deferred_ownership ? 0 : 1;
  const uint64_t seq = qp->sq_tail++;
  mem_.write_obj(qp->slot_addr(seq), wqe);
  ++counters_.wqes_posted;
  return seq;
}

void Nic::ring_doorbell(QueuePair* qp) {
  ++counters_.doorbells;
  kick(qp);
}

void Nic::grant_ownership(QueuePair* qp, uint64_t slot_seq) {
  const Addr a = qp->slot_addr(slot_seq);
  auto w = mem_.read_obj<Wqe>(a);
  w.d.active = 1;
  mem_.write_obj(a, w);
  kick(qp);
}

void Nic::post_recv(QueuePair* qp, const RecvWqe& wqe) {
  qp->recv_queue.push_back(wqe);
  // Replay a receiver-not-ready packet if one is parked. It already
  // passed the PSN gate when it first arrived, so it must bypass
  // psn_accept (which would now misread it as a duplicate).
  if (!qp->stalled_inbound.empty()) {
    Packet p = std::move(qp->stalled_inbound.front());
    qp->stalled_inbound.pop_front();
    dispatch_packet(std::move(p));
  }
}

SharedReceiveQueue* Nic::create_srq() {
  auto srq = std::make_unique<SharedReceiveQueue>();
  srq->srqn = static_cast<uint32_t>(srqs_.size()) + 1;
  srqs_.push_back(std::move(srq));
  return srqs_.back().get();
}

void Nic::attach_srq(QueuePair* qp, SharedReceiveQueue* srq) {
  assert(qp->srq == nullptr && "QP already attached to an SRQ");
  qp->srq = srq;
  srq->member_qpns.push_back(qp->qpn);
}

void Nic::detach_srq(QueuePair* qp) {
  SharedReceiveQueue* srq = qp->srq;
  if (srq == nullptr) return;
  qp->srq = nullptr;
  auto& v = srq->member_qpns;
  v.erase(std::remove(v.begin(), v.end(), qp->qpn), v.end());
}

void Nic::post_srq_recv(SharedReceiveQueue* srq, const RecvWqe& wqe) {
  srq->queue.push_back(wqe);
  // Replay one parked packet from any attached QP (FIFO across members).
  for (uint32_t qpn : srq->member_qpns) {
    QueuePair* q = qp(qpn);
    if (q == nullptr || q->stalled_inbound.empty()) continue;
    Packet p = std::move(q->stalled_inbound.front());
    q->stalled_inbound.pop_front();
    dispatch_packet(std::move(p));  // PSN was accepted on first arrival
    return;
  }
}

sim::Duration Nic::dma_cost(size_t bytes) const {
  return static_cast<sim::Duration>(cfg_.dma_ns_per_byte *
                                    static_cast<double>(bytes));
}

// ---------------------------------------------------------------- engine --

void Nic::kick(QueuePair* qp) {
  if (qp->engine_running) return;
  qp->engine_running = true;
  qp->blocked_on_wait = false;
  engine_step(qp);
}

void Nic::engine_step(QueuePair* qp, sim::Duration lead) {
  // Fused stepping: the examination runs synchronously in the caller's
  // event (execute tail, kick, or a local-DMA completion) and schedules
  // straight to the next WQE's *execution* instant — one event per WQE
  // instead of a step event plus an execute event. `lead` carries the
  // remaining engine occupancy of the activity that just finished (a
  // payload gather, a consumed WAIT), so execution times are unchanged:
  // next execute fires at now + lead + wqe_cost (+ context fetch).
  // Satisfied WAITs are consumed inline, accumulating their cost into
  // `lead` rather than bouncing through the heap per WAIT.
  for (;;) {
    if (qp->sq_head == qp->sq_tail) {
      qp->engine_running = false;
      return;
    }
    const auto w = mem_.read_obj<Wqe>(qp->slot_addr(qp->sq_head));
    if (static_cast<Opcode>(w.d.opcode) == Opcode::kWait && w.d.active) {
      CompletionQueue* c = cq(w.wait_cq);
      assert(c != nullptr && "WAIT references unknown CQ");
      if (c->completion_count() >= w.wait_threshold) {
        ++qp->sq_head;
        ++counters_.wqes_executed;
        lead += cfg_.wait_cost;
        continue;
      }
      qp->engine_running = false;
      qp->blocked_on_wait = true;
      block_on_cq(qp, w.wait_cq);
      return;
    }
    if (!w.d.active) {
      // Ownership still with the driver; a DMA patch or grant_ownership()
      // will re-kick this queue. Register on the DMA watch list so
      // after_dma_write only scans queues that can actually be woken.
      qp->engine_running = false;
      if (!qp->on_dma_watch) {
        qp->on_dma_watch = true;
        dma_watch_.push_back(qp->qpn);
      }
      return;
    }
    ++qp->sq_head;
    ++counters_.wqes_executed;
    // Re-resolve through the generation-tagged table at fire time: a
    // destroy_qp between schedule and fire (e.g. group teardown with a
    // chain mid-traversal) must drop the WQE, not chase a freed QP.
    loop_.schedule_after(lead + cfg_.wqe_cost + qp_context_touch(qp->qpn),
                         [this, qpn = qp->qpn, w] {
                           if (QueuePair* q = qps_.get(qpn)) execute(q, w);
                         });
    return;
  }
}

sim::Duration Nic::qp_context_touch(uint32_t qpn) {
  if (cfg_.qp_cache_entries == 0) return 0;
  QueuePair* q = qps_.get(qpn);
  if (q == nullptr) {
    // Stale packet for a destroyed QP: charge the fetch, pin nothing.
    ++counters_.qp_cache_misses;
    return cfg_.qp_cache_miss_cost;
  }
  if (q->ctx_cache_slot >= 0) {
    qp_cache_slots_[static_cast<size_t>(q->ctx_cache_slot)].ref = 1;
    ++counters_.qp_cache_hits;
    return 0;
  }
  ++counters_.qp_cache_misses;
  // Miss: install via clock (second-chance) replacement — O(1) amortized,
  // no list walk, regardless of how many QPs the NIC hosts.
  if (qp_cache_slots_.size() < cfg_.qp_cache_entries) {
    q->ctx_cache_slot = static_cast<int32_t>(qp_cache_slots_.size());
    qp_cache_slots_.push_back(QpCacheSlot{qpn, 1, true});
    return cfg_.qp_cache_miss_cost;
  }
  for (;;) {
    QpCacheSlot& s = qp_cache_slots_[qp_clock_hand_];
    const uint32_t hand = qp_clock_hand_;
    qp_clock_hand_ = (qp_clock_hand_ + 1) %
                     static_cast<uint32_t>(qp_cache_slots_.size());
    if (s.live && s.ref != 0) {
      s.ref = 0;  // second chance
      continue;
    }
    if (s.live) {
      if (QueuePair* old = qps_.get(s.qpn)) old->ctx_cache_slot = -1;
    }
    s = QpCacheSlot{qpn, 1, true};
    q->ctx_cache_slot = static_cast<int32_t>(hand);
    return cfg_.qp_cache_miss_cost;
  }
}

void Nic::execute(QueuePair* qp, const Wqe& w) {
  const auto op = static_cast<Opcode>(w.d.opcode);
  const bool local = qp->loopback || op == Opcode::kNop ||
                     op == Opcode::kLocalCopy;
  if (local) {
    execute_local(qp, w);
  } else {
    assert(qp->connected && "WQE posted on unconnected QP");
    execute_remote(qp, w);
  }
}

void Nic::execute_local(QueuePair* qp, const Wqe& w) {
  const auto op = static_cast<Opcode>(w.d.opcode);
  switch (op) {
    case Opcode::kNop: {
      local_completion(qp, w, CqStatus::kSuccess, 0);
      engine_step(qp);
      return;
    }
    // The DMA and CAS closures below re-resolve the QP by its
    // generation-tagged qpn at fire time, as engine_step's execute does:
    // a destroy_qp while the operation is in flight drops the WQE.
    case Opcode::kLocalCopy:
    case Opcode::kWrite: {
      // Local DMA copy: local_addr -> remote_addr.
      const sim::Duration cost = dma_cost(w.d.length);
      loop_.schedule_after(cost, [this, qpn = qp->qpn, w] {
        QueuePair* q = qps_.get(qpn);
        if (q == nullptr) return;
        mem_.copy(w.d.remote_addr, w.d.local_addr, w.d.length);
        after_dma_write(w.d.remote_addr, w.d.length);
        local_completion(q, w, CqStatus::kSuccess, w.d.length);
        engine_step(q);
      });
      return;
    }
    case Opcode::kCas: {
      loop_.schedule_after(cfg_.cas_cost, [this, qpn = qp->qpn, w] {
        QueuePair* q = qps_.get(qpn);
        if (q == nullptr) return;
        uint64_t old = 0;
        mem_.read(w.d.remote_addr, &old, sizeof(old));
        if (old == w.d.compare) {
          mem_.write(w.d.remote_addr, &w.d.swap, sizeof(w.d.swap));
        }
        if (w.d.local_addr != 0) {
          mem_.write(w.d.local_addr, &old, sizeof(old));
          after_dma_write(w.d.local_addr, sizeof(old));
        }
        local_completion(q, w, CqStatus::kSuccess, 8);
        engine_step(q);
      });
      return;
    }
    case Opcode::kRead:
    case Opcode::kFlush: {
      // Local flush: write back this NIC's pending volatile writes.
      if (w.d.length == 0 && nvm_ != nullptr) {
        nvm_->persist_all();
        ++counters_.flushes;
      }
      local_completion(qp, w, CqStatus::kSuccess, w.d.length);
      engine_step(qp);
      return;
    }
    default:
      assert(false && "unsupported local opcode");
  }
}

void Nic::execute_remote(QueuePair* qp, const Wqe& w) {
  const auto op = static_cast<Opcode>(w.d.opcode);
  Packet p;
  p.src_nic = id_;
  p.dst_nic = qp->remote_nic;
  p.src_qpn = qp->qpn;
  p.dst_qpn = qp->remote_qpn;
  p.wr_seq = next_wr_seq_++;
  p.remote_addr = w.d.remote_addr;
  p.rkey = w.d.rkey;
  p.length = w.d.length;
  p.imm = w.d.imm;

  PendingWr wr;
  wr.wr_id = w.wr_id;
  wr.opcode = w.d.opcode;
  wr.signaled = w.signaled;
  wr.byte_len = w.d.length;
  wr.land_addr = w.d.local_addr;

  sim::Duration gather_cost = 0;
  switch (op) {
    case Opcode::kWrite:
    case Opcode::kWriteImm:
    case Opcode::kSend: {
      const size_t total = size_t{w.d.length} + w.d.aux_length;
      if ((w.d.flags & kWqeFlagZeroCopy) != 0 && op != Opcode::kSend &&
          w.d.aux_length == 0 && w.d.length > 0) {
        // Chain-forward fast path: alias the region bytes instead of
        // memcpy'ing them into the packet. The borrow materializes
        // (copy-on-write) if anything overwrites the region while the
        // packet — or its retransmit-window / response-cache sharers —
        // is still live.
        p.payload = mem_.borrow_payload(w.d.local_addr, w.d.length);
      } else {
        p.payload.resize_uninit(total);
        if (w.d.length > 0) {
          mem_.read(w.d.local_addr, p.payload.data(), w.d.length);
        }
        if (w.d.aux_length > 0) {
          mem_.read(w.d.aux_addr, p.payload.data() + w.d.length,
                    w.d.aux_length);
        }
        if (op != Opcode::kSend) {
          // Data-plane gather (SENDs carry control-plane descriptor
          // blobs and are excluded from the copy-discipline gate).
          PayloadBuf::add_bytes_copied(total);
          counters_.payload_bytes_copied += total;
        }
      }
      p.length = static_cast<uint32_t>(total);
      p.type = op == Opcode::kWrite      ? Packet::Type::kWrite
               : op == Opcode::kWriteImm ? Packet::Type::kWriteImm
                                         : Packet::Type::kSend;
      // Plain WRITEs only: WRITE_IMM must respond (the immediate drives
      // the client's completion path) and SENDs complete a RECV.
      if (op == Opcode::kWrite && (w.d.flags & kWqeFlagAckElide) != 0) {
        p.flags |= kPacketFlagAckElide;
      }
      // Charged either way: the simulated DMA engine still streams
      // `total` bytes — zero-copy removes the real memmove, not the
      // modeled gather time (keeps latencies and determinism identical).
      gather_cost = dma_cost(total);
      break;
    }
    case Opcode::kRead:
    case Opcode::kFlush: {
      p.type = Packet::Type::kRead;
      if (op == Opcode::kFlush) p.length = 0;
      break;
    }
    case Opcode::kCas: {
      p.type = Packet::Type::kCas;
      p.compare = w.d.compare;
      p.swap = w.d.swap;
      p.length = 8;
      break;
    }
    default:
      assert(false && "unsupported remote opcode");
  }

  p.psn = qp->next_psn++;
  track_request(qp, p, wr);
  ++counters_.packets_tx;
  counters_.bytes_tx += p.wire_bytes();
  net_.transmit(std::move(p));
  // The engine pipelines: the next WQE may transmit before this one is
  // ACKed (RC ordering is preserved by per-port FIFO serialization). The
  // gather occupancy rides into the next WQE's schedule as `lead`.
  engine_step(qp, gather_cost);
}

void Nic::local_completion(QueuePair* qp, const Wqe& w, CqStatus status,
                           uint32_t bytes) {
  if (status != CqStatus::kSuccess) ++counters_.remote_access_errors;
  if (!w.signaled || qp->send_cq == nullptr) return;
  Cqe c;
  c.wr_id = w.wr_id;
  c.qpn = qp->qpn;
  c.opcode = w.d.opcode;
  c.status = status;
  c.byte_len = bytes;
  qp->send_cq->push(c);
}

// --------------------------------------------------------------- receive --

void Nic::on_packet(Packet&& p) {
  const sim::Duration cost = cfg_.rx_base_cost + dma_cost(p.payload.size()) +
                             qp_context_touch(p.dst_qpn);
  rx_busy_until_ = std::max(loop_.now(), rx_busy_until_) + cost;
  ++counters_.packets_rx;
  auto deliver = [this, pkt = std::move(p)]() mutable {
    handle_packet(std::move(pkt));
  };
  // The per-packet delivery closure is the hottest schedule in the whole
  // simulator; it must fit the event loop's inline callback storage or
  // every hop heap-allocates.
  static_assert(sizeof(deliver) <= sim::EventLoop::kInlineCallbackBytes,
                "packet delivery closure must stay inline in the event loop");
  loop_.schedule_at(rx_busy_until_, std::move(deliver));
}

void Nic::handle_packet(Packet&& p) {
  // Stale QPN (destroyed QP — possibly with its slot since recycled, in
  // which case the generation tag mismatches) or garbage: drop. A real
  // NIC would also send a NAK; the simulated requester recovers through
  // its retransmission/RNR budget.
  if (qp(p.dst_qpn) == nullptr) {
    ++counters_.invalid_qp_drops;
    return;
  }
  if (p.is_request() && !psn_accept(p)) return;
  dispatch_packet(std::move(p));
}

void Nic::dispatch_packet(Packet&& p) {
  switch (p.type) {
    case Packet::Type::kSend:
    case Packet::Type::kWriteImm: {
      QueuePair* dst = qp(p.dst_qpn);
      assert(dst != nullptr && "packet for unknown QP");
      sim::Ring<RecvWqe>& pool =
          dst->srq != nullptr ? dst->srq->queue : dst->recv_queue;
      if (pool.empty()) {
        ++counters_.rnr_stalls;
        dst->stalled_inbound.push_back(std::move(p));
        return;
      }
      if (p.type == Packet::Type::kWriteImm) {
        responder_write(p);  // sends the ACK itself
        // Consume a RECV to deliver the immediate.
        const uint64_t wr_id = pool.front().wr_id;
        pool.pop_front();
        Cqe c;
        c.wr_id = wr_id;
        c.qpn = dst->qpn;
        c.opcode = static_cast<uint8_t>(Opcode::kWriteImm);
        c.byte_len = p.length;
        c.imm = p.imm;
        c.has_imm = true;
        if (dst->recv_cq != nullptr) dst->recv_cq->push(c);
      } else {
        responder_send(p, dst);
      }
      return;
    }
    case Packet::Type::kWrite:
      responder_write(p);
      return;
    case Packet::Type::kRead:
      responder_read(p);
      return;
    case Packet::Type::kCas:
      responder_cas(p);
      return;
    case Packet::Type::kAck:
    case Packet::Type::kReadResp:
    case Packet::Type::kCasResp:
      requester_response(p);
      return;
  }
}

void Nic::responder_send(Packet& p, QueuePair* dst) {
  sim::Ring<RecvWqe>& pool =
      dst->srq != nullptr ? dst->srq->queue : dst->recv_queue;
  // Consumed in place: the scatter below runs no host code, so nothing
  // posts to `pool` while `r` is in use (checked after each store, whose
  // write observers and DMA hooks are the only code it reaches); it is
  // popped before the CQE push, whose notify callback may post the next
  // RECV.
  const RecvWqe& r = pool.front();
  const uint64_t wr_id = r.wr_id;
  [[maybe_unused]] const size_t depth = pool.size();

  // Scatter the payload across the RECV's SGE list, in order. This is
  // where remote work-request manipulation happens: SGEs may point at
  // pre-posted WQE descriptors in the send-queue rings.
  size_t off = 0;
  CqStatus status = CqStatus::kSuccess;
  for (const Sge& sge : r.sges) {
    if (off >= p.payload.size()) break;
    const size_t n = std::min<size_t>(sge.length, p.payload.size() - off);
    if (!mrs_.check_local(sge.lkey, sge.addr, n)) {
      status = CqStatus::kLocalProtectionError;
      break;
    }
    mem_.write(sge.addr, p.payload.data() + off, n);
    after_dma_write(sge.addr, n);
    assert(pool.size() == depth && &pool.front() == &r &&
           "RECV posted during scatter; `r` may dangle");
    off += n;
  }
  if (off < p.payload.size() && status == CqStatus::kSuccess) {
    // Payload larger than the scatter list.
    status = CqStatus::kLocalProtectionError;
  }
  pool.pop_front();

  Cqe c;
  c.wr_id = wr_id;
  c.qpn = dst->qpn;
  c.opcode = static_cast<uint8_t>(Opcode::kSend);
  c.status = status;
  c.byte_len = static_cast<uint32_t>(p.payload.size());
  if (dst->recv_cq != nullptr) dst->recv_cq->push(c);

  send_response(p, Packet::Type::kAck, {}, static_cast<uint8_t>(status));
}

void Nic::responder_write(Packet& p) {
  CqStatus status = CqStatus::kSuccess;
  if (!mrs_.check_remote(p.rkey, p.remote_addr, p.payload.size(),
                         kRemoteWrite)) {
    status = CqStatus::kRemoteAccessError;
    ++counters_.remote_access_errors;
  } else if (!p.payload.empty()) {
    // The mandatory sink DMA-out: one copy per replica's region.
    mem_.write(p.remote_addr, p.payload.data(), p.payload.size());
    PayloadBuf::add_bytes_copied(p.payload.size());
    counters_.payload_bytes_copied += p.payload.size();
    after_dma_write(p.remote_addr, p.payload.size());
  }
  // Elided success ACK: the next non-elided response on this QP (the
  // chain trio's FLUSH ReadResp) acknowledges this PSN cumulatively.
  // Errors always respond — the requester must learn the status. Nothing
  // enters the response cache for an elided PSN; a retransmitted elided
  // WRITE replays nothing, and the retransmitted FLUSH behind it replays
  // its cached ReadResp, which re-acknowledges the whole window prefix.
  if (status == CqStatus::kSuccess && (p.flags & kPacketFlagAckElide) != 0) {
    return;
  }
  send_response(p, Packet::Type::kAck, {}, static_cast<uint8_t>(status));
}

void Nic::responder_read(Packet& p) {
  CqStatus status = CqStatus::kSuccess;
  PayloadBuf data;
  if (!mrs_.check_remote(p.rkey, p.remote_addr, p.length, kRemoteRead)) {
    status = CqStatus::kRemoteAccessError;
    ++counters_.remote_access_errors;
  } else if (p.length == 0) {
    // gFLUSH: a 0-byte READ flushes this NIC's volatile writes into the
    // durable domain before the response (= durability ACK) goes back.
    if (nvm_ != nullptr) nvm_->persist_all();
    ++counters_.flushes;
  } else {
    data.resize_uninit(p.length);
    mem_.read(p.remote_addr, data.data(), p.length);
    PayloadBuf::add_bytes_copied(p.length);
    counters_.payload_bytes_copied += p.length;
  }
  send_response(p, Packet::Type::kReadResp, std::move(data),
                static_cast<uint8_t>(status));
}

void Nic::responder_cas(Packet& p) {
  CqStatus status = CqStatus::kSuccess;
  uint64_t old = 0;
  if (!mrs_.check_remote(p.rkey, p.remote_addr, 8, kRemoteAtomic)) {
    status = CqStatus::kRemoteAccessError;
    ++counters_.remote_access_errors;
  } else {
    mem_.read(p.remote_addr, &old, sizeof(old));
    if (old == p.compare) {
      mem_.write(p.remote_addr, &p.swap, sizeof(p.swap));
    }
  }
  PayloadBuf payload;
  payload.resize_uninit(sizeof(old));
  std::memcpy(payload.data(), &old, sizeof(old));
  send_response(p, Packet::Type::kCasResp, std::move(payload),
                static_cast<uint8_t>(status));
}

void Nic::send_response(const Packet& req, Packet::Type type,
                        PayloadBuf payload, uint8_t status) {
  Packet resp;
  resp.type = type;
  resp.src_nic = id_;
  resp.dst_nic = req.src_nic;
  resp.src_qpn = req.dst_qpn;
  resp.dst_qpn = req.src_qpn;
  resp.wr_seq = req.wr_seq;
  resp.psn = req.psn;
  resp.status = status;
  resp.payload = std::move(payload);
  if (QueuePair* local = qp(req.dst_qpn)) {
    cache_response(local, req.psn, resp);
  }
  ++counters_.packets_tx;
  counters_.bytes_tx += resp.wire_bytes();
  net_.transmit(std::move(resp));
}

void Nic::requester_response(Packet& p) {
  QueuePair* q = qp(p.dst_qpn);
  if (q == nullptr) return;  // destroyed since the request went out

  // A response to PSN n acknowledges every request up to n (the responder
  // processes strictly in order). Walk the window from the head, popping
  // acknowledged entries; the one matching wr_seq completes with a CQE.
  // Entries popped without matching had their responses lost — they are
  // acknowledged without a completion. A response matching nothing is a
  // duplicate/stale and pops nothing (its PSN is below the window head).
  bool matched = false;
  bool progressed = false;
  TrackedRequest done;
  while (!q->unacked.empty() && q->unacked.front().pkt.psn <= p.psn) {
    TrackedRequest& t = q->unacked.front();
    if (t.pkt.wr_seq == p.wr_seq) {
      matched = true;
      done = std::move(t);
    } else if (t.wr.signaled && q->send_cq != nullptr &&
               (t.pkt.type == Packet::Type::kWrite ||
                t.pkt.type == Packet::Type::kWriteImm ||
                t.pkt.type == Packet::Type::kSend)) {
      // Retired by a cumulative response (its own ACK was elided or
      // lost): the responder processed it in order, so it succeeded.
      // WRITE/SEND carry no response data, so a success CQE is the whole
      // completion. READ/CAS responses carry data — those stay
      // completion-less here and are recovered by retransmission.
      Cqe c;
      c.wr_id = t.wr.wr_id;
      c.qpn = q->qpn;
      c.opcode = t.wr.opcode;
      c.status = CqStatus::kSuccess;
      c.byte_len = t.wr.byte_len;
      q->send_cq->push(c);
    }
    q->unacked.pop_front();
    progressed = true;
  }
  if (progressed) {
    q->retry_rounds = 0;
    if (!q->unacked.empty()) {
      // Lazy timer: progress only moves the staleness horizon to the new
      // window head. A pending timer re-parks itself when it fires early.
      q->retry_deadline = q->unacked.front().sent + cfg_.retransmit_timeout;
      if (q->retry_timer == 0) {
        // Timer was parked after exhausting the retry budget; progress
        // means the responder is alive again, so resume guarding.
        arm_retry_timer(q);
      }
    }
    // Window empty: let any pending timer expire as a no-op.
  }
  if (!matched) return;  // duplicate/stale response

  auto status = static_cast<CqStatus>(p.status);
  if (status == CqStatus::kSuccess) {
    if (p.type == Packet::Type::kReadResp && !p.payload.empty()) {
      mem_.write(done.wr.land_addr, p.payload.data(), p.payload.size());
      PayloadBuf::add_bytes_copied(p.payload.size());
      counters_.payload_bytes_copied += p.payload.size();
      after_dma_write(done.wr.land_addr, p.payload.size());
    } else if (p.type == Packet::Type::kCasResp) {
      assert(p.payload.size() == 8);
      if (done.wr.land_addr != 0) {
        mem_.write(done.wr.land_addr, p.payload.data(), 8);
        PayloadBuf::add_bytes_copied(8);
        counters_.payload_bytes_copied += 8;
        after_dma_write(done.wr.land_addr, 8);
      }
    }
  }

  if (done.wr.signaled && q->send_cq != nullptr) {
    Cqe c;
    c.wr_id = done.wr.wr_id;
    c.qpn = q->qpn;
    c.opcode = done.wr.opcode;
    c.status = status;
    c.byte_len = done.wr.byte_len;
    q->send_cq->push(c);
  }
}

// ------------------------------------------------------------ RC transport --

bool Nic::psn_accept(Packet& p) {
  QueuePair* dst = qp(p.dst_qpn);
  if (dst == nullptr) return false;
  if (p.psn == dst->expected_psn) {
    ++dst->expected_psn;
    return true;
  }
  if (p.psn < dst->expected_psn) {
    // Duplicate (our response was lost, or the request was retransmitted
    // while parked): replay the cached response if we already produced it.
    ++counters_.duplicates_dropped;
    if (!dst->resp_cache.empty()) {
      CachedResponse& slot =
          dst->resp_cache[p.psn & (QueuePair::kRespCacheEntries - 1)];
      if (slot.psn_plus1 == p.psn + 1) {
        ++counters_.packets_tx;
        counters_.bytes_tx += slot.resp.wire_bytes();
        // Replay keeps the cache slot; the lvalue overload copies the
        // packet once, straight into the delivery closure.
        net_.transmit(slot.resp);
      }
    }
    return false;
  }
  // Ahead of sequence: an earlier packet was lost. Go-back-N drops it;
  // the requester retransmits the whole window in order.
  ++counters_.out_of_order_dropped;
  return false;
}

void Nic::cache_response(QueuePair* qp, uint64_t psn, const Packet& resp) {
  // Direct-mapped by PSN: the ring naturally retains the last
  // kRespCacheEntries responses — anything older can no longer be
  // legitimately retransmitted by a correct peer. Sized lazily so
  // requester-only QPs never allocate it.
  if (qp->resp_cache.empty()) qp->resp_cache.resize(QueuePair::kRespCacheEntries);
  CachedResponse& slot = qp->resp_cache[psn & (QueuePair::kRespCacheEntries - 1)];
  slot.psn_plus1 = psn + 1;
  slot.resp = resp;
}

void Nic::track_request(QueuePair* qp, const Packet& p, const PendingWr& wr) {
  TrackedRequest t;
  t.sent = loop_.now();
  t.pkt = p;  // payload buffer is refcounted, not copied
  t.wr = wr;
  qp->unacked.push_back(std::move(t));
  if (qp->unacked.size() == 1) {
    qp->retry_deadline = loop_.now() + retry_interval(qp->retry_rounds);
  }
  if (qp->retry_timer == 0) arm_retry_timer(qp);
}

sim::Duration Nic::retry_interval(uint32_t rounds) const {
  // Capped exponential backoff: double the interval per consecutive
  // no-progress round.
  const uint32_t shift = std::min<uint32_t>(rounds, 20);
  sim::Duration interval = cfg_.retransmit_timeout << shift;
  if (interval > cfg_.max_retransmit_backoff ||
      interval < cfg_.retransmit_timeout) {  // shift overflow guard
    interval = cfg_.max_retransmit_backoff;
  }
  return interval;
}

void Nic::arm_retry_timer(QueuePair* qp) {
  qp->retry_timer = loop_.schedule_at(
      qp->retry_deadline, [this, qpn = qp->qpn] { retry_fire(qpn); });
}

void Nic::retry_fire(uint32_t qpn) {
  QueuePair* q = qp(qpn);
  if (q == nullptr) return;
  q->retry_timer = 0;
  if (q->unacked.empty()) {
    // Fully acknowledged since the timer was armed; the timer simply
    // expires. The next track_request arms a fresh one.
    q->retry_rounds = 0;
    return;
  }
  if (loop_.now() < q->retry_deadline) {
    // ACK progress pushed the horizon out while this timer was pending:
    // re-park at the new deadline instead of walking the window.
    arm_retry_timer(q);
    return;
  }
  const sim::Time stale_before = loop_.now() - cfg_.retransmit_timeout;
  if (q->unacked.front().sent <= stale_before) {
    // Go-back-N: resend the whole unacknowledged window, in PSN order.
    for (size_t i = 0; i < q->unacked.size(); ++i) {
      TrackedRequest& t = q->unacked[i];
      t.sent = loop_.now();
      ++counters_.retransmits;
      ++counters_.packets_tx;
      counters_.bytes_tx += t.pkt.wire_bytes();
      net_.transmit(t.pkt);
    }
    ++q->retry_rounds;
    q->retry_deadline = loop_.now() + retry_interval(q->retry_rounds);
  } else {
    // The window head made progress since the deadline was set.
    q->retry_rounds = 0;
    q->retry_deadline = q->unacked.front().sent + cfg_.retransmit_timeout;
  }
  if (cfg_.rnr_retry_limit == 0 || q->retry_rounds < cfg_.rnr_retry_limit) {
    arm_retry_timer(q);
  }
  // Else: stop retransmitting. The peer is parked receiver-not-ready and
  // will deliver + ACK once a RECV is posted; any ACK progress or new
  // post_send re-arms the timer (requester_response / track_request).
}

// ------------------------------------------------------------ WAIT wiring --

void Nic::after_dma_write(Addr addr, size_t len) {
  // A DMA may have patched (and activated) pre-posted WQEs: re-kick any
  // watched QP whose send-queue ring overlaps the written range. Only QPs
  // stalled at an inactive head WQE are on the watch list, so this scan
  // is proportional to the number of stalled queues, not all QPs.
  if (dma_watch_.empty()) return;
  dma_watch_scratch_.clear();
  dma_watch_scratch_.swap(dma_watch_);
  for (uint32_t qpn : dma_watch_scratch_) {
    QueuePair* q = qp(qpn);
    if (q == nullptr || !q->on_dma_watch) continue;  // destroyed / stale entry
    if (addr < q->sq_end() && addr + len > q->sq_base) {
      q->on_dma_watch = false;
      kick(q);  // re-registers itself if it stalls again
    } else {
      dma_watch_.push_back(qpn);  // still stalled, still watched
    }
  }
}

void Nic::block_on_cq(QueuePair* q, uint32_t cq_id) {
  if (q->waiting_cqn == cq_id) return;  // already queued on this CQ
  if (q->waiting_cqn != 0) unlink_waiter(q);
  CompletionQueue* c = cq(cq_id);
  assert(c != nullptr);
  q->waiting_cqn = cq_id;
  q->next_wait_qpn = 0;
  if (c->wait_tail_qpn == 0) {
    c->wait_head_qpn = q->qpn;
  } else {
    QueuePair* tail = qp(c->wait_tail_qpn);
    assert(tail != nullptr);
    tail->next_wait_qpn = q->qpn;
  }
  c->wait_tail_qpn = q->qpn;
}

void Nic::unlink_waiter(QueuePair* q) {
  CompletionQueue* c = cq(q->waiting_cqn);
  q->waiting_cqn = 0;
  if (c == nullptr) {
    q->next_wait_qpn = 0;
    return;
  }
  uint32_t prev = 0;
  uint32_t walk = c->wait_head_qpn;
  while (walk != 0 && walk != q->qpn) {
    prev = walk;
    QueuePair* pq = qp(walk);
    walk = pq != nullptr ? pq->next_wait_qpn : 0;
  }
  if (walk != q->qpn) {  // not on the list (already detached)
    q->next_wait_qpn = 0;
    return;
  }
  if (prev == 0) {
    c->wait_head_qpn = q->next_wait_qpn;
  } else {
    qp(prev)->next_wait_qpn = q->next_wait_qpn;
  }
  if (c->wait_tail_qpn == q->qpn) c->wait_tail_qpn = prev;
  q->next_wait_qpn = 0;
}

void Nic::on_cq_advance(uint32_t cq_id) {
  CompletionQueue* c = cq(cq_id);
  if (c == nullptr || c->wait_head_qpn == 0) return;
  // Detach the whole list before waking anyone: a kicked engine may
  // immediately re-block on this CQ, relinking itself behind the batch.
  uint32_t walk = c->wait_head_qpn;
  c->wait_head_qpn = 0;
  c->wait_tail_qpn = 0;
  while (walk != 0) {
    QueuePair* q = qp(walk);
    if (q == nullptr) break;  // unreachable: destroy_qp unlinks waiters
    walk = q->next_wait_qpn;
    q->next_wait_qpn = 0;
    q->waiting_cqn = 0;
    if (q->blocked_on_wait) kick(q);
  }
}

}  // namespace hyperloop::rdma
