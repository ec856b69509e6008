#include "rdma/verbs_owner.h"

namespace hyperloop::rdma {

CompletionQueue* VerbsOwner::create_cq(Nic& nic, size_t capacity) {
  CompletionQueue* cq = nic.create_cq(capacity);
  cqs_.push_back({&nic, cq});
  return cq;
}

QueuePair* VerbsOwner::create_qp(Nic& nic, CompletionQueue* send_cq,
                                 CompletionQueue* recv_cq, uint32_t sq_slots) {
  QueuePair* qp = nic.create_qp(send_cq, recv_cq, sq_slots);
  qps_.push_back({&nic, qp});
  return qp;
}

QueuePair* VerbsOwner::create_loopback_qp(Nic& nic, CompletionQueue* send_cq,
                                          uint32_t sq_slots) {
  QueuePair* qp = nic.create_loopback_qp(send_cq, sq_slots);
  qps_.push_back({&nic, qp});
  return qp;
}

void VerbsOwner::release() {
  for (const OwnedQp& o : qps_) o.nic->destroy_qp(o.qp);
  for (const OwnedCq& o : cqs_) o.nic->destroy_cq(o.cq);
  qps_.clear();
  cqs_.clear();
}

}  // namespace hyperloop::rdma
