// HyperLoop: group-based NIC-offloaded replicated memory operations (§4).
//
// Chain topology: client -> R0 -> R1 -> ... -> R{G-1} -> client.
//
// Per replica and per primitive, the group pre-posts rings of WQE chains
// whose descriptors are *patched remotely* by the client:
//
//   gWRITE   qp_next: [WAIT(recv_prev >= k+1)] [WRITE] [FLUSH] [SEND]
//   gMEMCPY  qp_loop: [WAIT(recv_prev >= k+1)] [COPY] [FLUSH]
//            qp_next: [WAIT(loop_cq  >= 2(k+1))] [SEND]
//   gCAS     qp_loop: [WAIT(recv_prev >= k+1)] [CAS]
//            qp_next: [WAIT(loop_cq  >= k+1)]  [SEND]
//
// The bracketed WRITE/FLUSH/SEND/COPY/CAS WQEs are posted with *deferred
// ownership* (active=0). The matching pre-posted RECV on qp_prev scatters
// the inbound metadata SEND byte-for-byte onto those descriptors —
// rewriting addresses, lengths and opcodes (FLUSH->NOP when no durability
// is requested; CAS->NOP per the execute map) and setting active=1. The
// recv completion then satisfies the WAIT and the NIC executes the patched
// chain with no replica CPU anywhere on the path.
//
// Replica CPUs only run a periodic refill task (off the critical path)
// that re-arms consumed ring slots, exactly as §5.1 describes.
//
// Each primitive has its own credit window (core::OpWindow, see
// DESIGN.md "Op window and verbs teardown"), and patch descriptors are
// staged straight into the metadata ring slot, so the client side is
// allocation-free in steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/group.h"
#include "core/op_window.h"
#include "core/server.h"
#include "rdma/nic.h"
#include "rdma/verbs_owner.h"

namespace hyperloop::core {

class HyperLoopGroup final : public ReplicationGroup {
 public:
  struct Config {
    uint64_t region_size = 4u << 20;
    /// Pre-posted chain slots per primitive per replica.
    uint32_t ring_slots = 512;
    /// Max client-side in-flight ops per primitive (must be <= ring/2).
    uint32_t max_inflight = 32;
    /// Replica refill cadence and CPU cost (off critical path): each wake
    /// pays the base cost plus a per-re-armed-slot cost.
    sim::Duration refill_period = sim::usec(100);
    sim::Duration refill_cpu = sim::usec(1);
    sim::Duration refill_cpu_per_slot = sim::nsec(150);
    /// If false, replicas re-arm rings with zero CPU (idealized NIC
    /// self-refill; used by ablation benchmarks).
    bool refill_via_cpu = true;
    /// Which NIC (per server, wrapping) carries this group's QPs.
    /// Sharded deployments give shard s nic_index = s so chains land on
    /// distinct simulated NICs (ServerConfig::num_nics).
    uint32_t nic_index = 0;

    /// Enforces the documented invariants (constructor calls this; it
    /// aborts with a diagnostic rather than silently mis-running):
    ///   - max_inflight >= 1: the credit window must admit at least one op.
    ///   - max_inflight <= ring_slots / 2: the client may only wrap
    ///     halfway around the pre-posted replica rings; the other half is
    ///     the re-arm headroom the off-path refill task needs. Violating
    ///     this lets a fast client patch a slot whose previous chain has
    ///     not been re-armed, corrupting deferred descriptors in flight.
    void validate() const;
  };

  struct OpCounters {
    uint64_t gwrites = 0;
    uint64_t gwritevs = 0;         ///< batched submissions (chain traversals)
    uint64_t gwritev_extents = 0;  ///< extents carried by those batches
    uint64_t gmemcpys = 0;
    uint64_t gcas = 0;
    uint64_t gflushes = 0;
    uint64_t bytes_replicated = 0;
  };

  HyperLoopGroup(Server& client, std::vector<Server*> replicas, Config cfg);
  ~HyperLoopGroup() override;

  // ReplicationGroup API --------------------------------------------------
  size_t group_size() const override { return replicas_.size(); }
  uint64_t region_size() const override { return cfg_.region_size; }
  void gwrite(uint64_t offset, uint32_t len, bool flush, Done done) override;
  void gwritev(const ExtentVec& extents, bool flush, Done done) override;
  void gmemcpy(uint64_t src_offset, uint64_t dst_offset, uint32_t len,
               bool flush, Done done) override;
  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            ExecMap exec_map, CasDone done) override;
  void gflush(Done done) override;
  void stop() override;
  void client_store(uint64_t offset, const void* src, uint32_t len) override;
  void client_load(uint64_t offset, void* dst, uint32_t len) const override;
  void replica_load(size_t i, uint64_t offset, void* dst,
                    uint32_t len) const override;

  const OpCounters& counters() const { return counters_; }

  /// Replica-side data region base (tests use this with NvmDevice to
  /// check durability).
  rdma::Addr replica_region_base(size_t i) const;

  /// rkey of replica i's data region (for one-sided reader QPs).
  uint32_t replica_data_rkey(size_t i) const {
    return replicas_.at(i).data_mr.rkey;
  }
  Server& replica_server(size_t i) { return *replicas_[i].server; }
  Server& client_server() { return client_; }

  /// Total receiver-not-ready stalls across all replica QPs — should stay
  /// 0 when refill keeps up (asserted by tests, reported by benches).
  uint64_t total_rnr_stalls() const;

  /// CPU consumed by replica i on behalf of this group (the periodic ring
  /// refill only — nothing on the critical path).
  sim::Duration replica_cpu_time(size_t i) const {
    const Replica& r = replicas_.at(i);
    return cfg_.refill_via_cpu ? r.server->sched().stats(r.refill_pid).cpu_time
                               : sim::Duration{0};
  }

 private:
  /// gWRITE is gWRITEV at a width of one WRITE slot. kWriteV still gets
  /// its own ring rather than sharing kWrite's: a chain slot must have a
  /// fixed WQE count (WAIT thresholds and refill accounting depend on
  /// it), so a shared ring would bill every single gWRITE the NOP cost of
  /// kMaxExtents unused WRITE slots.
  enum class Prim : uint8_t { kWrite = 0, kMemcpy = 1, kCas = 2, kWriteV = 3 };
  static constexpr int kNumPrims = 4;
  static constexpr uint32_t kDescBytes = sizeof(rdma::WqeDescriptor);
  static constexpr uint32_t kMaxExtents =
      static_cast<uint32_t>(ExtentVec::kCapacity);

  // One primitive's state on one replica.
  struct ReplicaChain {
    rdma::QueuePair* qp_prev = nullptr;
    rdma::QueuePair* qp_next = nullptr;
    rdma::QueuePair* qp_loop = nullptr;
    rdma::CompletionQueue* cq_recv_prev = nullptr;
    rdma::CompletionQueue* cq_send_next = nullptr;
    rdma::CompletionQueue* cq_loop = nullptr;
    rdma::Addr staging_base = 0;
    uint32_t staging_slot = 0;   ///< bytes per staging ring slot
    uint32_t staging_len = 0;    ///< forwarded metadata bytes at this hop
    rdma::Addr result_base = 0;  ///< gCAS result-map ring (8*G per slot)
    uint32_t ring_lkey = 0;      ///< covers WQE rings + staging + result
    uint64_t next_rearm = 0;     ///< next absolute slot seq to re-arm
  };

  // One replica's full state.
  struct Replica {
    Server* server = nullptr;
    rdma::Addr data_base = 0;
    rdma::MemoryRegion data_mr{};
    ReplicaChain chain[kNumPrims];
    sim::ProcessId refill_pid = 0;
  };

  /// One primitive's parameters by value: the submit path builds it, and
  /// the window parks it while no credit is free.
  struct Op {
    ExtentVec extents{};  ///< gWRITE (one extent) and gWRITEV
    uint64_t offset = 0;  ///< gMEMCPY source, gCAS target
    uint64_t dst = 0;     ///< gMEMCPY destination
    uint32_t len = 0;     ///< gMEMCPY length
    bool flush = false;
    uint64_t expected = 0;
    uint64_t desired = 0;
    ExecMap exec{};
    Done done{};
    CasDone cas_done{};
  };

  // Client-side per-primitive state.
  struct ClientChain {
    explicit ClientChain(uint32_t max_inflight)
        : window(max_inflight, 2 * max_inflight) {}

    rdma::QueuePair* qp_down = nullptr;
    rdma::QueuePair* qp_up = nullptr;
    rdma::CompletionQueue* cq_up = nullptr;
    rdma::Addr staging_base = 0;  ///< metadata build ring
    uint32_t staging_slot = 0;
    rdma::Addr ack_base = 0;  ///< ack / result-map landing ring
    rdma::MemoryRegion ack_mr{};
    OpWindow<Op> window;
  };

  static bool is_write(Prim p) {
    return p == Prim::kWrite || p == Prim::kWriteV;
  }
  /// WRITE slots per chain slot of a write-like primitive.
  static uint32_t write_width(Prim p) {
    return p == Prim::kWriteV ? kMaxExtents : 1;
  }

  // WQEs per ring slot on each queue, by primitive. A write-like slot is
  // [WAIT][WRITE x width][FLUSH][SEND]; unused WRITEs patch to NOP.
  static uint32_t next_wqes(Prim p) {
    return is_write(p) ? write_width(p) + 3 : 2;
  }
  static uint32_t loop_wqes(Prim p) {
    return p == Prim::kMemcpy ? 3 : (p == Prim::kCas ? 2 : 0);
  }
  /// Completions accumulating on cq_send_next per finished slot.
  static uint32_t next_completions(Prim p) {
    return is_write(p) ? write_width(p) + 2 : 1;
  }
  /// Completions accumulating on cq_loop per finished slot.
  static uint32_t loop_completions(Prim p) { return p == Prim::kMemcpy ? 2 : 1; }

  static uint32_t desc_count(Prim p) {
    if (is_write(p)) return write_width(p) + 2;
    return p == Prim::kCas ? 2 : 3;
  }
  uint32_t result_bytes() const {
    return static_cast<uint32_t>(8 * replicas_.size());
  }
  ClientChain& chain(Prim p) { return client_chain_[static_cast<int>(p)]; }
  rdma::Nic& nic(Server& s) const { return s.nic(cfg_.nic_index); }
  /// Op `seq`'s slot in the client's metadata staging ring.
  rdma::Addr staging_addr(const ClientChain& cc, uint64_t seq) const {
    return cc.staging_base + (seq % (cfg_.max_inflight * 2)) * cc.staging_slot;
  }
  /// Op `seq`'s slot in the client's ack / result-map landing ring.
  rdma::Addr ack_addr(const ClientChain& cc, uint64_t seq) const {
    return cc.ack_base + (seq % (cfg_.max_inflight * 2)) * result_bytes();
  }

  void setup_replica(size_t i);
  void setup_client_chain(Prim p);
  void rearm_slot(size_t replica, Prim p, uint64_t seq);
  void refill_tick(size_t replica);
  uint32_t do_refill(size_t replica);
  void start_refill(size_t replica);

  /// Stages the patch descriptors for op `seq` directly into the client's
  /// metadata staging ring slot (no temporary buffer); returns blob bytes.
  uint32_t stage_blob(Prim p, uint64_t seq, const Op& op);

  /// The one submit path: takes a credit and issues, or parks `op`.
  void submit(Prim p, Op& op);
  /// Stages everything `op` needs on qp_down and doorbells once.
  void issue(Prim p, Op& op);
  void on_ack_cqe(Prim p);

  rdma::WqeDescriptor nop_desc() const;

  Server& client_;
  std::vector<Replica> replicas_;
  Config cfg_;
  rdma::VerbsOwner verbs_;
  std::vector<ClientChain> client_chain_;  ///< indexed by Prim
  rdma::Addr client_region_ = 0;
  rdma::Addr client_zeros_ = 0;  ///< gCAS initial (zero) result map source
  std::vector<uint64_t> cas_scratch_;  ///< gCAS result-map read buffer
  OpCounters counters_;
};

}  // namespace hyperloop::core
