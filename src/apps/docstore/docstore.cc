#include "apps/docstore/docstore.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/ycsb/workload.h"

namespace hyperloop::apps {

DocStore::DocStore(core::ReplicationGroup& group, core::Server& client,
                   Config cfg)
    : group_(group), client_(client), cfg_(cfg) {
  assert(cfg_.shards >= 1);
  assert(cfg_.layout.base == 0 && "pass the shard-0 slice layout");
  shards_.reserve(cfg_.shards);
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    Shard sh;
    sh.layout = cfg_.layout.shard_slice(s);
    sh.wal = std::make_unique<core::ReplicatedWal>(group, sh.layout, cfg_.wal);
    sh.locks =
        std::make_unique<core::GroupLockManager>(group, sh.layout,
                                                 client.loop());
    sh.txns = std::make_unique<core::TransactionManager>(group, *sh.wal,
                                                         *sh.locks,
                                                         client.loop());
    shards_.push_back(std::move(sh));
  }
  client_pid_ = client_.sched().create_process(client_.name() + "-doc-fe");
}

std::vector<uint8_t> DocStore::encode_doc(
    uint64_t key, const std::vector<uint8_t>& value) const {
  assert(value.size() <= cfg_.value_size);
  std::vector<uint8_t> doc(slot_stride());
  std::memcpy(doc.data(), &key, 8);
  const uint32_t len = static_cast<uint32_t>(value.size());
  std::memcpy(doc.data() + 8, &len, 4);
  std::memcpy(doc.data() + 16, value.data(), value.size());
  return doc;
}

void DocStore::write_doc(uint64_t key, std::vector<uint8_t> value,
                         Done done) {
  // Front-end CPU first, then the offloaded transaction on the owning
  // shard's lock table + oplog.
  client_.sched().submit(
      client_pid_, cfg_.op_cpu,
      [this, key, value = std::move(value), done = std::move(done)]() mutable {
        Shard& sh = shards_[shard_of(key)];
        std::vector<core::ReplicatedWal::Entry> writes;
        writes.push_back({slot_offset(key), encode_doc(key, value)});
        sh.txns->execute(std::move(writes), {stripe(key)},
                         [done = std::move(done)](bool ok) mutable {
                           done(ok);
                         });
      });
}

void DocStore::insert(uint64_t key, std::vector<uint8_t> value, Done done) {
  write_doc(key, std::move(value), std::move(done));
}

void DocStore::update(uint64_t key, std::vector<uint8_t> value, Done done) {
  write_doc(key, std::move(value), std::move(done));
}

void DocStore::set_sharded_reader(core::ShardedReader* reader) {
  for (uint32_t s = 0; s < reader->shards(); ++s) {
    if (slot_stride() > reader->shard(s).slot_size()) {
      std::fprintf(stderr,
                   "DocStore: a %llu-byte document does not fit one %u-byte "
                   "reader slot (shard %u); a multi-READ document could "
                   "tear under a concurrent apply\n",
                   static_cast<unsigned long long>(slot_stride()),
                   reader->shard(s).slot_size(), s);
      std::abort();
    }
  }
  sreader_ = reader;
}

void DocStore::local_read(uint64_t key, ReadDone done) {
  const Shard& sh = shards_[shard_of(key)];
  uint32_t len = 0;
  group_.client_load(sh.layout.db_base() + slot_offset(key) + 8, &len, 4);
  if (len == 0 || len > cfg_.value_size) {
    done(false, {});
    return;
  }
  std::vector<uint8_t> value(len);
  group_.client_load(sh.layout.db_base() + slot_offset(key) + 16,
                     value.data(), len);
  done(true, std::move(value));
}

void DocStore::replica_read(uint64_t key, int attempts_left, ReadDone done) {
  // One doorbell, two READs on one replica's QP, executed in order: the
  // document, then its stripe's writer word. A writer holds that word on
  // the replica across its apply there, so a 0 read after the document
  // means the document was not caught mid-transaction.
  const Shard& sh = shards_[shard_of(key)];
  core::ReadVec v;
  v.push_back(core::ReadExtent{sh.layout.db_base() + slot_offset(key),
                               static_cast<uint32_t>(slot_stride())});
  v.push_back(core::ReadExtent{sh.layout.lock_offset(stripe(key)), 8});
  sreader_->readv(v, [this, key, attempts_left, done = std::move(done)](
                         core::ReadView view) mutable {
    uint64_t writer = 0;
    std::memcpy(&writer, view.data() + slot_stride(), 8);
    if (writer != 0) {
      if (attempts_left <= 1) {
        ++stats_.read_failures;
        done(false, {});
        return;
      }
      ++stats_.read_retries;
      client_.loop().schedule_after(
          shards_[shard_of(key)].locks->config().retry_backoff,
          [this, key, attempts_left, done = std::move(done)]() mutable {
            replica_read(key, attempts_left - 1, std::move(done));
          });
      return;
    }
    uint32_t len = 0;
    std::memcpy(&len, view.data() + 8, 4);
    if (len == 0 || len > cfg_.value_size) {
      done(false, {});
      return;
    }
    done(true, std::vector<uint8_t>(view.begin() + 16,
                                    view.begin() + 16 + len));
  });
}

void DocStore::read(uint64_t key, ReadDone done) {
  client_.sched().submit(
      client_pid_, cfg_.op_cpu,
      [this, key, done = std::move(done)]() mutable {
        if (cfg_.read_from_replica && sreader_ != nullptr) {
          replica_read(key,
                       shards_[shard_of(key)].locks->config().max_attempts,
                       std::move(done));
        } else {
          local_read(key, std::move(done));
        }
      });
}

void DocStore::remote_scan(uint64_t key, int count, Done done) {
  // Cross-slice scatter scan: each shard's slots for [key, key + count)
  // are one contiguous DB-area range (keys stripe k % shards, so shard
  // s's covered keys sit in consecutive local slots). One extent per
  // shard, one batched scatter readv — instead of `count` client-side
  // slice hops. Lock-free snapshot read, like the local path.
  core::ReadVec v;
  const uint64_t stride = slot_stride();
  const auto kcount = static_cast<uint64_t>(count);
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    const uint64_t first =
        key + (s + cfg_.shards - key % cfg_.shards) % cfg_.shards;
    if (first >= key + kcount) continue;
    uint64_t n = (key + kcount - 1 - first) / cfg_.shards + 1;
    const uint64_t l0 = first / cfg_.shards;
    const core::RegionLayout& lay = shards_[s].layout;
    const uint64_t max_slots = lay.db_size() / stride;
    if (l0 >= max_slots) continue;
    n = std::min(n, max_slots - l0);
    v.push_back(core::ReadExtent{lay.db_base() + l0 * stride,
                                 static_cast<uint32_t>(n * stride)});
  }
  if (v.empty()) {
    done(false);
    return;
  }
  const uint32_t vsize = cfg_.value_size;
  sreader_->readv(v, [done = std::move(done), vsize](
                         core::ReadView view) mutable {
    const uint64_t stride = 16 + vsize;
    int found = 0;
    for (uint64_t off = 0; off + stride <= view.size(); off += stride) {
      uint32_t len = 0;
      std::memcpy(&len, view.data() + off + 8, 4);
      if (len != 0 && len <= vsize) ++found;
    }
    done(found > 0);
  });
}

void DocStore::scan(uint64_t key, int count, Done done) {
  // Scans read `count` consecutive documents from the local copy; charge
  // per-document CPU (cursor iteration + marshalling). Consecutive keys
  // stripe across shards, so the cursor hops slices as it advances —
  // unless a sharded reader serves the whole scan as one scatter batch
  // from the replicas.
  const auto cpu =
      cfg_.op_cpu + sim::nsec(500) * static_cast<sim::Duration>(count);
  if (cfg_.read_from_replica && sreader_ != nullptr) {
    client_.sched().submit(client_pid_, cpu,
                           [this, key, count,
                            done = std::move(done)]() mutable {
                             remote_scan(key, count, std::move(done));
                           });
    return;
  }
  client_.sched().submit(client_pid_, cpu,
                         [this, key, count, done = std::move(done)]() mutable {
                           int found = 0;
                           for (int i = 0; i < count; ++i) {
                             uint32_t len = 0;
                             const uint64_t k = key + static_cast<uint64_t>(i);
                             const Shard& sh = shards_[shard_of(k)];
                             if (slot_offset(k) + slot_stride() >
                                 sh.layout.db_size()) {
                               break;
                             }
                             group_.client_load(
                                 sh.layout.db_base() + slot_offset(k) + 8,
                                 &len, 4);
                             if (len != 0) ++found;
                           }
                           done(found > 0);
                         });
}

void DocStore::read_modify_write(uint64_t key, std::vector<uint8_t> value,
                                 Done done) {
  read(key, [this, key, value = std::move(value), done = std::move(done)](
                bool ok, std::vector<uint8_t>) mutable {
    if (!ok) {
      done(false);
      return;
    }
    write_doc(key, std::move(value), std::move(done));
  });
}

void DocStore::bulk_load(uint64_t n) {
  constexpr uint64_t kLanes = WorkloadGenerator::kValueLanes;
  const uint32_t size = cfg_.value_size;
  std::vector<uint8_t> values(kLanes * size);
  for (uint64_t k0 = 0; k0 < n; k0 += kLanes) {
    const uint64_t m = std::min(kLanes, n - k0);
    WorkloadGenerator::fill_values(k0, m, size, values.data());
    for (uint64_t k = k0; k < k0 + m; ++k) {
      const uint8_t* v = values.data() + (k - k0) * size;
      const auto doc = encode_doc(k, std::vector<uint8_t>(v, v + size));
      const Shard& sh = shards_[shard_of(k)];
      group_.client_store(sh.layout.db_base() + slot_offset(k), doc.data(),
                          static_cast<uint32_t>(doc.size()));
    }
  }
  const uint32_t chunk = 256 << 10;
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    // Keys stripe k % shards, so shard s holds ceil((n - s) / shards)
    // loaded slots.
    const uint64_t local =
        s < n % cfg_.shards ? n / cfg_.shards + 1 : n / cfg_.shards;
    const uint64_t total = local * slot_stride();
    for (uint64_t off = 0; off < total; off += chunk) {
      const auto len =
          static_cast<uint32_t>(std::min<uint64_t>(chunk, total - off));
      group_.gwrite(shards_[s].layout.db_base() + off, len, /*flush=*/true,
                    [] {});
    }
  }
}

}  // namespace hyperloop::apps
