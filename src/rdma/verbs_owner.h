// Owner of a component's NIC verbs: every CQ and QP a replication group
// or reader creates goes through one VerbsOwner, which records it with
// its Nic and destroys them all on release().
//
// release() destroys every QP before any CQ (destroying a QP unlinks it
// from the waiter list of the CQ its WAIT is parked on, and destroy_cq
// requires that list empty), each kind in creation order. Creation order
// also fixes the order freed QPN/CQN slots return to each NIC's free
// list, so a component built after a teardown gets the same ids on every
// run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rdma/nic.h"

namespace hyperloop::rdma {

class VerbsOwner {
 public:
  VerbsOwner() = default;
  VerbsOwner(const VerbsOwner&) = delete;
  VerbsOwner& operator=(const VerbsOwner&) = delete;
  ~VerbsOwner() { release(); }

  CompletionQueue* create_cq(Nic& nic, size_t capacity = 4096);
  QueuePair* create_qp(Nic& nic, CompletionQueue* send_cq,
                       CompletionQueue* recv_cq, uint32_t sq_slots = 0);
  QueuePair* create_loopback_qp(Nic& nic, CompletionQueue* send_cq,
                                uint32_t sq_slots = 0);

  /// Destroys every recorded QP, then every CQ. Idempotent; the
  /// destructor calls it. Pointers handed out before are dangling after.
  void release();

 private:
  struct OwnedQp {
    Nic* nic;
    QueuePair* qp;
  };
  struct OwnedCq {
    Nic* nic;
    CompletionQueue* cq;
  };

  std::vector<OwnedQp> qps_;
  std::vector<OwnedCq> cqs_;
};

/// Connects `qa` on `a` and `qb` on `b` to each other (both ends of one
/// reliable connection).
inline void connect_rc(Nic& a, QueuePair* qa, Nic& b, QueuePair* qb) {
  a.connect(qa, b.id(), qb->qpn);
  b.connect(qb, a.id(), qa->qpn);
}

}  // namespace hyperloop::rdma
