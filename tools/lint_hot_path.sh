#!/usr/bin/env sh
# Hot-path token lint: the control-plane files below must stay on
# sim::SmallFn completions and flat (seq-indexed / pooled) op tables.
# A reappearing std::function or std::unordered_map means a heap-backed
# callable or a hashing map crept back onto the per-op path, which the
# nic_alloc_test transaction lap would catch at runtime — this catches it
# at review time, comments included (a plain grep, by design).
#
# Usage: tools/lint_hot_path.sh   (also wired as the `lint` cmake target
# and a ci.yml step)
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)

FILES="
src/core/group.h
src/core/op_window.h
src/core/hyperloop_group.h
src/core/hyperloop_group.cc
src/core/naive_group.h
src/core/naive_group.cc
src/core/fanout_group.h
src/core/fanout_group.cc
src/core/tcp_group.h
src/core/tcp_group.cc
src/core/wal.h
src/core/wal.cc
src/core/sharded_group.h
src/core/sharded_group.cc
src/core/remote_reader.h
src/core/remote_reader.cc
src/core/sharded_reader.h
src/core/sharded_reader.cc
src/core/lock.h
src/core/lock.cc
src/core/txn.h
src/core/txn.cc
src/apps/docstore/docstore.h
src/apps/docstore/docstore.cc
src/rdma/nic.h
src/rdma/nic.cc
src/rdma/completion_queue.h
src/rdma/completion_queue.cc
src/rdma/queue_pair.h
src/rdma/recv_ring.h
src/rdma/slot_table.h
src/rdma/verbs_owner.h
src/rdma/verbs_owner.cc
src/rdma/payload_buf.h
src/rdma/payload_buf.cc
src/rdma/memory.h
src/rdma/memory.cc
src/rdma/packet.h
src/rdma/network.h
src/rdma/network.cc
src/rdma/wqe.h
src/nvm/nvm_device.h
src/nvm/nvm_device.cc
src/nvm/dirty_bitmap.h
src/nvm/dirty_bitmap.cc
src/sim/event_loop.h
src/sim/event_loop.cc
src/sim/ring.h
src/sim/cpu_scheduler.h
src/sim/cpu_scheduler.cc
"

status=0
for f in $FILES; do
  if [ ! -f "$ROOT/$f" ]; then
    echo "lint: missing gated file $f" >&2
    status=1
    continue
  fi
  if grep -nE 'std::(function|unordered_map)' "$ROOT/$f"; then
    echo "lint: banned token in $f (use sim::SmallFn / flat tables on the hot path)" >&2
    status=1
  fi
done

[ "$status" -eq 0 ] && echo "lint: hot-path files clean"
exit $status
