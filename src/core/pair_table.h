// Open-addressed flat hash table over packed pair keys.
//
// The engine memo cache and the worker models' sticky-answer tables used
// to be std::unordered_map<uint64_t, ElementId>: one heap node per pair,
// pointer-chasing on every probe, and a full rehash-scale teardown on
// clear(). PairTable replaces them with a single flat slot array (linear
// probing, power-of-two capacity) and an epoch-based Clear() that
// invalidates every slot in O(1) without releasing the arena — the
// "reset per round instead of rehashed" layout of DESIGN.md §14.
//
// Values are ElementIds and may be any int32, including the engine's -1
// in-flight reservation and kUnresolvedWinner (-2) parking sentinels;
// presence is tracked by the slot epoch, never by a value sentinel.
//
// Thread-safety: mutation is single-threaded like the maps it replaces.
// Concurrent Find() calls with no writer are safe (the parallel engine's
// read-only snapshot discipline during a round).
//
// Serialization: SavePairTable/LoadPairTable emit exactly the bytes of
// CheckpointWriter::WriteSortedMap over an equivalent unordered_map, so
// swapping the container changed no checkpoint golden.

#ifndef CROWDMAX_CORE_PAIR_TABLE_H_
#define CROWDMAX_CORE_PAIR_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/instance.h"

namespace crowdmax {

class CheckpointReader;
class CheckpointWriter;

/// One key's result from PairTable::InsertBatch.
struct PairSlotRef {
  /// The value stored under the key; valid until the table's next
  /// mutating call (Insert, InsertBatch, Set, Reserve, Clear, a load).
  ElementId* value = nullptr;
  /// True when this call inserted the key: its first occurrence in the
  /// batch, absent before the call.
  bool inserted = false;
};

class PairTable {
 public:
  PairTable() { Rehash(kInitialCapacity); }

  /// Pointer to the value stored under `key`, or nullptr when absent. The
  /// pointer is invalidated by any mutation.
  ElementId* Find(uint64_t key) {
    Slot* slot = Probe(key);
    return slot->epoch == epoch_ ? &slot->value : nullptr;
  }
  const ElementId* Find(uint64_t key) const {
    const Slot* slot = const_cast<PairTable*>(this)->Probe(key);
    return slot->epoch == epoch_ ? &slot->value : nullptr;
  }

  /// Inserts `value` under `key` when absent; returns the slot value
  /// pointer either way and reports which through `inserted` (may be
  /// null). The unordered_map::emplace shape the engine's barrier merge
  /// needs.
  ElementId* Insert(uint64_t key, ElementId value, bool* inserted = nullptr) {
    MaybeGrow();
    const PairSlotRef ref = Claim(key, value);
    if (inserted != nullptr) *inserted = ref.inserted;
    return ref.value;
  }

  /// Batch Insert: inserts `value` under every absent key of `keys` and
  /// finds every present one, writing keys[i]'s slot to out[i]. A key
  /// repeated within the batch is inserted at its first occurrence only.
  /// The arena grows at most once, before the walk (room for every key
  /// being new), so all of out's pointers stay pinned together until the
  /// next mutation; the walk prefetches the home slot kPrefetchDistance
  /// keys ahead. Entries and flags match calling Insert on each key in
  /// order; only the capacity may end up larger.
  void InsertBatch(std::span<const uint64_t> keys, ElementId value,
                   std::span<PairSlotRef> out);

  /// Insert-or-assign.
  void Set(uint64_t key, ElementId value) {
    bool inserted = false;
    ElementId* slot = Insert(key, value, &inserted);
    if (!inserted) *slot = value;
  }

  /// Grows the arena now so the next `additional` Insert calls cannot
  /// rehash — which pins slot pointers for that window. The worker
  /// models' two-pass batch walks rely on this: pass 1 reserves, inserts
  /// and caches slot pointers; pass 2 writes through them draw by draw.
  void Reserve(int64_t additional) {
    CROWDMAX_DCHECK(additional >= 0);
    const size_t needed = static_cast<size_t>(size_ + additional);
    size_t capacity = slots_.size();
    // Same 7/8 load ceiling as MaybeGrow.
    while (needed > capacity - (capacity >> 3)) capacity *= 2;
    if (capacity != slots_.size()) Rehash(capacity);
  }

  /// Drops every entry in O(1) by bumping the epoch; capacity (the arena)
  /// is retained, so per-round resets never rehash.
  void Clear() {
    ++epoch_;
    size_ = 0;
    if (epoch_ == 0) {
      // Epoch counter wrapped (2^32 clears): hard-reset the slots so stale
      // epochs cannot read as live.
      for (Slot& slot : slots_) slot.epoch = kDeadEpoch;
      epoch_ = 1;
    }
  }

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots in the arena: a power of two, never shrunk.
  size_t capacity() const { return slots_.size(); }

  /// Entries sorted by key — the canonical order for serialization and
  /// deterministic iteration.
  std::vector<std::pair<uint64_t, ElementId>> SortedEntries() const;

  /// Visits every live entry in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.epoch == epoch_) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    ElementId value = 0;
    uint32_t epoch = kDeadEpoch;
  };

  static constexpr size_t kInitialCapacity = 64;  // Power of two.
  static constexpr uint32_t kDeadEpoch = 0;
  // Keys InsertBatch looks ahead when prefetching home slots: enough
  // outstanding loads to cover a DRAM miss per probe on tables that
  // outgrow the cache.
  static constexpr size_t kPrefetchDistance = 16;

  // Where `key`'s probe chain starts. Fibonacci-hashes the key so packed
  // pairs (dense ids in both words) spread over the power-of-two table.
  size_t HomeIndex(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  // First slot whose key matches, else the first free slot of the probe
  // chain.
  Slot* Probe(uint64_t key) {
    size_t index = HomeIndex(key);
    while (true) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_ || slot.key == key) return &slot;
      index = (index + 1) & mask_;
    }
  }

  // Insert without the growth check: the caller has made room.
  PairSlotRef Claim(uint64_t key, ElementId value) {
    Slot* slot = Probe(key);
    const bool fresh = slot->epoch != epoch_;
    if (fresh) {
      slot->key = key;
      slot->value = value;
      slot->epoch = epoch_;
      ++size_;
    }
    return {&slot->value, fresh};
  }

  void MaybeGrow() {
    // Grow at 7/8 load so probe chains stay short.
    if (static_cast<size_t>(size_) + 1 >
        slots_.size() - (slots_.size() >> 3)) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;  // 64 - log2(capacity), for the multiplicative hash.
  uint32_t epoch_ = 1;
  int64_t size_ = 0;
};

/// Canonical checkpoint serialization: byte-identical to
/// CheckpointWriter::WriteSortedMap over an unordered_map with the same
/// entries (U64 count, then sorted (I64 key, I64 value) pairs).
void SavePairTable(CheckpointWriter* writer, const PairTable& table);
void LoadPairTable(CheckpointReader* reader, PairTable* table);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_PAIR_TABLE_H_
