#include "apps/kvstore/kvstore.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "apps/ycsb/workload.h"

namespace hyperloop::apps {

KvStore::KvStore(core::ReplicationGroup& group, core::Server& client,
                 std::vector<core::Server*> replica_servers, Config cfg)
    : group_(group), client_(client), cfg_(cfg),
      wal_(group, cfg.layout, cfg.shards, cfg.wal) {
  assert(cfg_.shards >= 1);
  assert(cfg_.layout.base == 0 && "pass the shard-0 slice layout");
  client_pid_ = client_.sched().create_process(client_.name() + "-kv");
  shards_.resize(cfg_.shards);
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_[s].layout = cfg_.layout.shard_slice(s);
  }
  replica_tables_.resize(replica_servers.size());
  for (size_t i = 0; i < replica_servers.size(); ++i) {
    replica_tables_[i].server = replica_servers[i];
    replica_tables_[i].applied.assign(cfg_.shards, 0);
    if (cfg_.replicas_sync) {
      replica_tables_[i].pid = replica_servers[i]->sched().create_process(
          replica_servers[i]->name() + "-kv-sync");
      replica_sync_tick(i);
    }
  }
}

KvStore::~KvStore() { *alive_ = false; }

std::vector<uint8_t> KvStore::encode_slot(
    uint64_t key, const std::vector<uint8_t>& value) const {
  std::vector<uint8_t> slot(slot_stride());
  std::memcpy(slot.data(), &key, 8);
  const uint32_t len = static_cast<uint32_t>(value.size());
  std::memcpy(slot.data() + 8, &len, 4);
  std::memcpy(slot.data() + 16, value.data(),
              std::min<size_t>(value.size(), cfg_.value_size));
  return slot;
}

void KvStore::defer_put(uint64_t key, std::vector<uint8_t> value,
                        std::shared_ptr<Done> done_sp) {
  client_.loop().schedule_after(
      sim::usec(200),
      [this, key, value = std::move(value), done_sp,
       alive = alive_]() mutable {
        if (!*alive) return;
        put(key, std::move(value),
            [done_sp](bool ok) { (*done_sp)(ok); });
      });
}

void KvStore::put(uint64_t key, std::vector<uint8_t> value, Done done) {
  assert(value.size() <= cfg_.value_size);
  const uint32_t s = shard_of(key);
  client_.sched().submit(
      client_pid_, cfg_.op_cpu,
      [this, s, key, value = std::move(value),
       done = std::move(done)]() mutable {
        if (shards_[s].paused) {
          // The shard's chain is under repair: defer, touching nothing —
          // the memtable must not run ahead of a WAL that cannot commit.
          defer_put(key, std::move(value),
                    std::make_shared<Done>(std::move(done)));
          return;
        }
        // Encode the log slot first so the value itself can move into
        // the memtable instead of being copied there.
        std::vector<core::ReplicatedWal::Entry> entries;
        entries.push_back({slot_offset(key), encode_slot(key, value)});
        shards_[s].memtable.insert(key, std::move(value));
        auto done_sp = std::make_shared<Done>(std::move(done));
        const bool ok = wal_.append_to(
            s, entries, [done_sp](uint64_t) { (*done_sp)(true); });
        if (!ok) {
          // Log full: checkpoint this shard and retry shortly, re-sending
          // the value the memtable now holds.
          std::vector<uint8_t> retry = *shards_[s].memtable.find(key);
          maybe_checkpoint(s);
          defer_put(key, std::move(retry), done_sp);
          return;
        }
        maybe_checkpoint(s);
      });
}

void KvStore::maybe_checkpoint(uint32_t s) {
  Shard& sh = shards_[s];
  if (sh.checkpoint_running) return;
  if (static_cast<double>(wal_.shard(s).used_bytes()) <
      cfg_.checkpoint_threshold * static_cast<double>(cfg_.layout.log_size)) {
    return;
  }
  sh.checkpoint_running = true;
  ++checkpoints_;
  // Drain until half the threshold, one record at a time, off the
  // critical path (appends continue concurrently).
  checkpoint_step(s);
}

void KvStore::checkpoint_step(uint32_t s) {
  const bool below =
      static_cast<double>(wal_.shard(s).used_bytes()) <
      cfg_.checkpoint_threshold / 2 * static_cast<double>(cfg_.layout.log_size);
  const auto next = [this, s, alive = alive_] {
    if (*alive) checkpoint_step(s);
  };
  if (below || !wal_.execute_and_advance(s, next)) {
    shards_[s].checkpoint_running = false;
  }
}

void KvStore::insert(uint64_t key, std::vector<uint8_t> value, Done done) {
  put(key, std::move(value), std::move(done));
}

void KvStore::update(uint64_t key, std::vector<uint8_t> value, Done done) {
  put(key, std::move(value), std::move(done));
}

void KvStore::read(uint64_t key, ReadDone done) {
  client_.sched().submit(client_pid_, cfg_.op_cpu,
                         [this, key, done = std::move(done)]() mutable {
                           const auto* v =
                               shards_[shard_of(key)].memtable.find(key);
                           if (v == nullptr) {
                             done(false, {});
                           } else {
                             done(true, *v);
                           }
                         });
}

void KvStore::remote_scan(uint64_t key, int count, Done done) {
  // One scatter batch over the replicated DB image: shard s's covered
  // keys occupy consecutive local slots (keys stripe k % shards), so the
  // whole cross-slice scan is one extent per shard, issued under one
  // doorbell per chain and rejoined by the sharded reader.
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

void KvStore::scan(uint64_t key, int count, Done done) {
  const auto cpu =
      cfg_.op_cpu + sim::nsec(300) * static_cast<sim::Duration>(count);
  if (sreader_ != nullptr) {
    client_.sched().submit(client_pid_, cpu,
                           [this, key, count,
                            done = std::move(done)]() mutable {
                             remote_scan(key, count, std::move(done));
                           });
    return;
  }
  client_.sched().submit(client_pid_, cpu, [this, key, count,
                                            done = std::move(done)]() mutable {
    // Scans walk the owning shard's table: dense keys stripe round-robin,
    // so one shard's iterator still yields `count` ascending keys.
    auto it = shards_[shard_of(key)].memtable.seek(key);
    int n = 0;
    while (it.valid() && n < count) {
      it.next();
      ++n;
    }
    done(n > 0);
  });
}

void KvStore::read_modify_write(uint64_t key, std::vector<uint8_t> value,
                                Done done) {
  read(key, [this, key, value = std::move(value), done = std::move(done)](
                bool ok, std::vector<uint8_t>) mutable {
    if (!ok) {
      done(false);
      return;
    }
    put(key, std::move(value), std::move(done));
  });
}

bool KvStore::replica_read(size_t replica, uint64_t key,
                           std::vector<uint8_t>* value) const {
  const auto* v = replica_tables_.at(replica).table.find(key);
  if (v == nullptr) return false;
  if (value != nullptr) *value = *v;
  return true;
}

void KvStore::replica_sync_tick(size_t i) {
  ReplicaState& r = replica_tables_[i];
  r.server->loop().schedule_after(cfg_.sync_period, [this, i, alive = alive_] {
    if (!*alive) return;
    ReplicaState& rs = replica_tables_[i];
    uint64_t new_records = 0;
    for (uint32_t s = 0; s < cfg_.shards; ++s) {
      const core::RegionLayout& lay = shards_[s].layout;
      // Read this replica's durable tail pointer from its own region.
      uint64_t tail = 0;
      group_.replica_load(i, lay.tail_ptr_offset(), &tail, 8);

      uint64_t v = rs.applied[s];
      auto log_phys = [&](uint64_t off) {
        return lay.log_base() + (off % lay.log_size);
      };
      while (v < tail) {
        // [magic u32][num u32][lsn u64][total u32][crc u32]
        uint32_t magic = 0, total = 0, num = 0;
        group_.replica_load(i, log_phys(v), &magic, 4);
        group_.replica_load(i, log_phys(v) + 16, &total, 4);
        if (magic == 0x57524150 /* WRAP */) {
          v += total;
          continue;
        }
        if (magic != 0x57414C21 /* WAL! */ || total == 0) break;
        group_.replica_load(i, log_phys(v) + 4, &num, 4);
        uint64_t p = v + 24;  // first entry header
        for (uint32_t e = 0; e < num; ++e) {
          uint64_t db_off = 0;
          uint32_t len = 0;
          group_.replica_load(i, log_phys(p), &db_off, 8);
          group_.replica_load(i, log_phys(p) + 8, &len, 4);
          // Slot payload: [key u64][len u32][pad][value...]
          if (len >= 16) {
            uint64_t key = 0;
            uint32_t vlen = 0;
            group_.replica_load(i, log_phys(p + 16), &key, 8);
            group_.replica_load(i, log_phys(p + 24), &vlen, 4);
            std::vector<uint8_t> val(vlen);
            group_.replica_load(i, log_phys(p + 32), val.data(), vlen);
            rs.table.insert(key, std::move(val));
          }
          p += 16 + ((len + 7) & ~uint64_t{7});
        }
        v += total;
        ++new_records;
      }
      rs.applied[s] = v;
    }
    if (new_records > 0) {
      // Charge the off-path CPU the sync actually used.
      rs.server->sched().submit(
          rs.pid,
          cfg_.sync_cpu_per_record * static_cast<sim::Duration>(new_records));
    }
    replica_sync_tick(i);
  });
}

void KvStore::recover() {
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    Shard& sh = shards_[s];
    sh.memtable.clear();
    // 1) Replay the committed log into the DB area (idempotent redo).
    core::ReplicatedWal::replay(
        sh.layout,
        [this](uint64_t off, void* dst, uint32_t len) {
          group_.client_load(off, dst, len);
        },
        [this](uint64_t off, const void* src, uint32_t len) {
          group_.client_store(off, src, len);
        });
    // 2) Scan this shard's DB-area slots; local slot l holds key
    //    l * shards + s (the stripe inverse).
    const uint64_t slots = sh.layout.db_size() / slot_stride();
    for (uint64_t l = 0; l < slots; ++l) {
      const uint64_t off = sh.layout.db_base() + l * slot_stride();
      const uint64_t expect = l * cfg_.shards + s;
      uint64_t key = 0;
      uint32_t len = 0;
      group_.client_load(off, &key, 8);
      group_.client_load(off + 8, &len, 4);
      if (len == 0 || len > cfg_.value_size) continue;
      if (key != expect) continue;  // never-written slot
      std::vector<uint8_t> val(len);
      group_.client_load(off + 16, val.data(), len);
      sh.memtable.insert(key, std::move(val));
    }
    wal_.shard(s).reload_pointers();
  }
}

void KvStore::bulk_load(uint64_t n) {
  // Control-path load: fill client memtables + region image, replicate
  // each shard's DB span in large chunks, and seed the replica tables
  // directly.
  constexpr uint64_t kLanes = WorkloadGenerator::kValueLanes;
  const uint32_t size = cfg_.value_size;
  std::vector<uint8_t> values(kLanes * size);
  for (uint64_t k0 = 0; k0 < n; k0 += kLanes) {
    const uint64_t m = std::min(kLanes, n - k0);
    WorkloadGenerator::fill_values(k0, m, size, values.data());
    for (uint64_t k = k0; k < k0 + m; ++k) {
      const uint8_t* v = values.data() + (k - k0) * size;
      std::vector<uint8_t> value(v, v + size);
      const auto slot = encode_slot(k, value);
      const Shard& sh = shards_[shard_of(k)];
      group_.client_store(sh.layout.db_base() + slot_offset(k), slot.data(),
                          static_cast<uint32_t>(slot.size()));
      shards_[shard_of(k)].memtable.insert(k, std::move(value));
    }
  }
  const uint32_t chunk = 256 << 10;
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    // Keys striping k % shards leave shard s with ceil((n - s) / shards)
    // loaded slots.
    const uint64_t local = s < n % cfg_.shards ? n / cfg_.shards + 1
                                               : n / cfg_.shards;
    const uint64_t total = local * slot_stride();
    for (uint64_t off = 0; off < total; off += chunk) {
      const auto len =
          static_cast<uint32_t>(std::min<uint64_t>(chunk, total - off));
      group_.gwrite(shards_[s].layout.db_base() + off, len, /*flush=*/true,
                    [] {});
    }
  }
  for (auto& r : replica_tables_) {
    r.table.clear();
    for (const Shard& sh : shards_) {
      for (SkipList::Iterator it = sh.memtable.begin(); it.valid();
           it.next()) {
        r.table.insert(it.key(), it.value());
      }
    }
  }
}

}  // namespace hyperloop::apps
