// Per-server host memory and RDMA memory-region registration.
//
// Each simulated server owns one flat HostMemory address space (a bump
// allocator over a byte arena). The arena is a LazyArena: anonymous
// mmap, so the kernel zeroes each page on first touch and set-up costs
// nothing for the (large) part of a server's DRAM a run never uses.
// All mutation goes through write()/write_obj() so that observers — the
// NVM durability tracker — see every store, whether it came from the CPU
// or a NIC DMA engine. Observers are range-filtered: each registers the
// [begin, end) window it watches, and stores outside every watched window
// skip dispatch with a single compare against the cached union of all
// windows — WQE patches, CQE writes and payload staging never pay an
// indirect observer call.
//
// MrTable models the protection domain: regions are registered with access
// rights and receive lkey/rkey capabilities; every NIC access is checked
// against (key, bounds, rights), exactly the checks that keep HyperLoop's
// remotely-writable work queues safe (§7, security analysis).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "rdma/payload_buf.h"
#include "sim/small_fn.h"

namespace hyperloop::rdma {

/// A virtual address within a server's HostMemory space.
using Addr = uint64_t;

/// Access rights for a registered memory region (bitmask).
enum Access : uint32_t {
  kLocalWrite = 1u << 0,
  kRemoteRead = 1u << 1,
  kRemoteWrite = 1u << 2,
  kRemoteAtomic = 1u << 3,
};

/// A fixed-size, zero-initialised byte arena over anonymous mmap.
///
/// The kernel supplies zero pages on first touch, so construction is
/// O(1) whatever the size and an untouched page costs no resident
/// memory. The mapping starts on a 2 MB boundary and carries
/// MADV_HUGEPAGE advice (arenas are tens of megabytes and payload copies
/// stream through them, so 4 KB pages would spend copy time on TLB
/// refills). One PROT_NONE guard page sits past the page-rounded end, so
/// a store at size() faults in every build type when size() is a page
/// multiple, as every server's arena is.
class LazyArena {
 public:
  /// Maps `size` zero bytes; throws std::bad_alloc if the mapping fails.
  explicit LazyArena(size_t size);
  ~LazyArena();
  LazyArena(const LazyArena&) = delete;
  LazyArena& operator=(const LazyArena&) = delete;

  uint8_t* data() { return base_; }
  const uint8_t* data() const { return base_; }
  size_t size() const { return size_; }

 private:
  uint8_t* base_;
  size_t size_;
  size_t mapped_;  // page-rounded size plus the guard page
};

/// One server's physical memory: arena + bump allocator + write observers.
class HostMemory {
 public:
  explicit HostMemory(size_t capacity) : bytes_(capacity) {}
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  /// Allocates `size` bytes aligned to `align` (power of two).
  /// Terminates the simulation (assert) on exhaustion — capacity is an
  /// experiment parameter, not a runtime condition.
  Addr alloc(size_t size, size_t align = 64);

  /// Copies `len` bytes into memory at `addr`, notifying observers whose
  /// watched range overlaps the write. Inline, like read(), so callers
  /// with a fixed size (write_obj) get the copy as plain moves.
  void write(Addr addr, const void* src, size_t len) {
    if (len == 0) return;
    check(addr, len);
    // Copy-on-write: borrows over this range keep the pre-store bytes.
    borrows_.materialize_range(addr, len);
    std::memcpy(bytes_.data() + addr, src, len);
    if (watched(addr, len)) notify(addr, len);
  }

  /// Copies `len` bytes into memory at `addr` WITHOUT notifying observers.
  /// This is the durability-revert path: NvmDevice::crash() restores the
  /// durable image through it, so the restore does not re-mark the
  /// restored ranges dirty. Simulation code modeling real stores must use
  /// write() instead.
  void restore(Addr addr, const void* src, size_t len);

  /// Copies `len` bytes out of memory at `addr`.
  void read(Addr addr, void* dst, size_t len) const {
    if (len == 0) return;
    check(addr, len);
    std::memcpy(dst, bytes_.data() + addr, len);
  }

  /// Memory-to-memory copy within this address space (DMA engines use
  /// this for gMEMCPY); handles overlap like memmove.
  void copy(Addr dst, Addr src, size_t len);

  /// Fills `len` bytes at `addr` with `value`.
  void fill(Addr addr, uint8_t value, size_t len);

  /// Typed load of a trivially-copyable object. The size is a constant,
  /// so the inlined read() copies with plain moves, not a memcpy call.
  template <typename T>
  T read_obj(Addr addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T t;
    read(addr, &t, sizeof(T));
    return t;
  }

  /// Typed store of a trivially-copyable object, through write().
  template <typename T>
  void write_obj(Addr addr, const T& t) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(addr, &t, sizeof(T));
  }

  /// Read-only raw view (bounds-checked); used for payload gathers.
  const uint8_t* view(Addr addr, size_t len) const;

  /// Zero-copy payload gather: a PayloadBuf aliasing [addr, addr+len)
  /// directly, registered so any later overlapping store (or arena
  /// teardown) first materializes the old bytes into the buffer's own
  /// storage. This is the single-copy forwarding path — the borrow
  /// itself moves no bytes.
  PayloadBuf borrow_payload(Addr addr, size_t len);

  /// Live zero-copy borrows over this arena (tests).
  size_t live_borrows() const { return borrows_.live(); }

  /// Registers an observer called after every write overlapping
  /// [begin, end) with the written (addr, len). Writes entirely outside
  /// every registered window are filtered before any indirect call.
  void add_write_observer(Addr begin, Addr end,
                          sim::SmallFn<void(Addr, size_t)> fn);

  size_t capacity() const { return bytes_.size(); }
  size_t used() const { return next_; }

 private:
  struct WriteObserver {
    Addr begin;
    Addr end;
    sim::SmallFn<void(Addr, size_t)> fn;
  };

  /// Bounds check (Debug only). Inline: it runs on every simulated load
  /// and store, and compiles away in Release.
  void check(Addr addr, size_t len) const {
    assert(addr + len <= bytes_.size() && "HostMemory access out of bounds");
    (void)addr;
    (void)len;
  }

  /// Fast-path filter: true iff [addr, addr+len) overlaps the union
  /// bounding box of all watched ranges. With no observers watch_hi_ is 0,
  /// so the first compare rejects everything; with the usual single NVM
  /// observer the box IS the watched range.
  bool watched(Addr addr, size_t len) const {
    return addr < watch_hi_ && addr + len > watch_lo_;
  }

  /// Out-of-line slow path: dispatch to each overlapping observer.
  void notify(Addr addr, size_t len);

  LazyArena bytes_;
  size_t next_ = 64;  // keep address 0 unused as a poison value
  std::vector<WriteObserver> observers_;
  Addr watch_lo_ = ~Addr{0};  // union bounding box of watched ranges
  Addr watch_hi_ = 0;
  // Declared after bytes_ so ~BorrowRegistry (materialize_all) runs
  // first, while the arena bytes it copies from are still alive.
  PayloadBuf::BorrowRegistry borrows_;
};

/// A registered memory region.
struct MemoryRegion {
  Addr addr = 0;
  uint64_t length = 0;
  uint32_t lkey = 0;
  uint32_t rkey = 0;
  uint32_t access = 0;
};

/// Registration table for one server (protection-domain scope).
///
/// Keys are dense and generation-tagged rather than hashed: bits 0..19
/// index the registration slot, bits 20..30 carry the slot's generation
/// (1..2047, wrapping), and bit 31 distinguishes rkey (set) from lkey
/// (clear). Every per-packet protection check is therefore an array probe
/// plus a compare, and a deregistered key held by an in-flight packet is
/// detected by the generation mismatch — it can never alias a region that
/// later recycled the slot.
class MrTable {
 public:
  static constexpr uint32_t kSlotBits = 20;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kGenBits = 11;
  static constexpr uint32_t kGenMask = (1u << kGenBits) - 1;
  static constexpr uint32_t kRemoteKeyBit = 1u << 31;

  /// Registers [addr, addr+length) with the given access rights.
  MemoryRegion register_mr(Addr addr, uint64_t length, uint32_t access);

  /// Revokes a registration by its rkey. Returns false if unknown. The
  /// slot's generation is bumped, so stale keys from in-flight packets
  /// fail the protection check even after the slot is reused.
  bool deregister(uint32_t rkey);

  /// Checks that `key` grants `need` access over [addr, addr+len).
  /// `key` is matched against rkey for remote rights and lkey for local.
  bool check_remote(uint32_t rkey, Addr addr, uint64_t len, uint32_t need) const;
  bool check_local(uint32_t lkey, Addr addr, uint64_t len) const;

  size_t size() const { return live_; }

 private:
  struct Slot {
    uint32_t gen = 0;
    bool live = false;
    MemoryRegion mr;
  };

  static bool in_bounds(const MemoryRegion& mr, Addr addr, uint64_t len);
  const MemoryRegion* lookup(uint32_t key, bool remote) const;

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  size_t live_ = 0;
};

}  // namespace hyperloop::rdma
