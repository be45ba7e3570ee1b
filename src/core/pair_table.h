// Open-addressed flat hash table over packed pair keys.
//
// The engine memo cache and the worker models' sticky-answer tables used
// to be std::unordered_map<uint64_t, ElementId>: one heap node per pair,
// pointer-chasing on every probe, and a full rehash-scale teardown on
// clear(). PairTable replaces them with a single flat array of 8-byte
// words (linear probing, power-of-two capacity) and a one-pass Clear()
// that keeps the arena (DESIGN.md §14).
//
// Word layout. One entry is one uint64_t:
//   bits 63..33  the higher id of the pair (PackPairKey's high word),
//   bits 32..2   the lower id (the low word),
//   bits  1..0   the value code: 0 = the lower id, 1 = the higher id,
//                2 = -1 (the engine's in-flight reservation),
//                3 = kUnresolvedWinner (a faulted pair's parking).
// Ids fit in 31 bits because ElementIds are non-negative int32. The
// all-zero word marks an empty slot; no entry encodes to it, because a
// pair's ids differ (DCHECKed) and a value equal to the higher id is
// always stored as code 1.
//
// Value contract: an entry's value is one of its pair's two ids, -1 or
// kUnresolvedWinner — a comparison's answer, or one of the engine's two
// sentinels. Storing anything else is a program bug and CHECK-fails in
// every build type; LoadPairTable refuses such bytes with a typed error
// instead. Because the value lives encoded inside the word, lookups hand
// out a PairValuePtr handle rather than an ElementId*.
//
// Thread-safety: mutation is single-threaded like the maps it replaces.
// Concurrent Find() calls with no writer are safe (the parallel engine's
// read-only snapshot discipline during a round).
//
// Serialization: SavePairTable/LoadPairTable emit exactly the bytes of
// CheckpointWriter::WriteSortedMap over an equivalent unordered_map, so
// neither swapping the container nor packing the entries changed a
// checkpoint golden.

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

/// Winner sentinel for a pair with no evidence this round: the executor
/// stack (after its own recovery) could not answer it. Comparator-backed
/// rounds never produce it. Matches the batched paths' historical
/// kUnresolved cache sentinel; PairTable stores it as value code 3.
inline constexpr ElementId kUnresolvedWinner = -2;

namespace pair_word {

inline constexpr uint64_t kCodeMask = 3;
inline constexpr uint64_t kIdMask = (uint64_t{1} << 31) - 1;
// The bit of each 32-bit half of a packed key that no id may set.
inline constexpr uint64_t kKeySignBits = 0x8000000080000000ULL;

/// The word's key bits (code cleared) for a packed pair key.
inline uint64_t KeyBits(uint64_t key) {
  CROWDMAX_DCHECK((key & kKeySignBits) == 0);
  return ((key >> 32) << 33) | ((key & kIdMask) << 2);
}

/// The packed pair key a word was built from.
inline uint64_t KeyOf(uint64_t word) {
  return ((word >> 33) << 32) | ((word >> 2) & kIdMask);
}

/// The value a word's code stands for.
inline ElementId Decode(uint64_t word) {
  const int code = static_cast<int>(word & kCodeMask);
  return code < 2 ? static_cast<ElementId>((word >> (2 + 31 * code)) & kIdMask)
                  : 1 - code;  // 2 -> -1, 3 -> kUnresolvedWinner.
}

/// The code for `value` under the pair in `key_bits`, or -1 when the
/// word cannot hold it. Which id won is a coin flip to the branch
/// predictor, so an id is tested in one product, zero iff `value` is one
/// of the two ids (exact: both factors are below 2^31), and the code is
/// selected without a branch. Compared one id at a time, the compiler
/// branches on the first comparison, a misprediction on half the answers.
/// A value equal to the higher id takes code 1 even for a self-pair,
/// which keeps every entry nonzero.
inline int CodeFor(uint64_t key_bits, ElementId value) {
  if (value < 0) return value == -1 ? 2 : value == kUnresolvedWinner ? 3 : -1;
  const uint64_t v = static_cast<uint64_t>(value);
  const uint64_t higher = key_bits >> 33;
  const uint64_t lower = (key_bits >> 2) & kIdMask;
  return (v ^ higher) * (v ^ lower) == 0 ? static_cast<int>(v == higher) : -1;
}

/// `key_bits` with `value`'s code; CHECK-fails on a value outside the
/// contract.
inline uint64_t Encode(uint64_t key_bits, ElementId value) {
  const int code = CodeFor(key_bits, value);
  CROWDMAX_CHECK(code >= 0 && "PairTable value is not an id of its pair");
  return key_bits | static_cast<uint64_t>(code);
}

}  // namespace pair_word

/// Read-only handle to one PairTable entry's value: `*ptr` decodes it.
/// Null when a lookup missed. Like a pointer into the arena it is
/// invalidated by any call that may move or clear the entries (Insert,
/// InsertBatch or Set beyond a Reserve, Reserve itself, Clear, a load).
class ConstPairValuePtr {
 public:
  ConstPairValuePtr() = default;
  ConstPairValuePtr(std::nullptr_t) {}  // The null handle, like a pointer.

  ElementId operator*() const { return pair_word::Decode(*word_); }
  explicit operator bool() const { return word_ != nullptr; }
  bool operator==(const ConstPairValuePtr&) const = default;

 protected:
  friend class PairTable;
  explicit ConstPairValuePtr(uint64_t* word) : word_(word) {}

  uint64_t* word_ = nullptr;
};

/// Read-and-assign handle: `*ptr` converts to the stored ElementId, and
/// `*ptr = value` re-encodes the entry (value contract CHECKed).
class PairValuePtr : public ConstPairValuePtr {
 public:
  PairValuePtr() = default;
  PairValuePtr(std::nullptr_t) {}

  class Ref {
   public:
    operator ElementId() const { return pair_word::Decode(*word_); }
    Ref& operator=(ElementId value) {
      *word_ = pair_word::Encode(*word_ & ~pair_word::kCodeMask, value);
      return *this;
    }
    // Assigns the value, never rebinds: `*a = *b` copies b's value.
    Ref& operator=(const Ref& other) {
      return *this = static_cast<ElementId>(other);
    }

   private:
    friend class PairValuePtr;
    explicit Ref(uint64_t* word) : word_(word) {}
    uint64_t* word_;
  };

  Ref operator*() const { return Ref(word_); }

  /// Starts pulling the entry's cache line in for a write.
  void Prefetch() const { __builtin_prefetch(word_, /*rw=*/1); }

 private:
  friend class PairTable;
  explicit PairValuePtr(uint64_t* word) : ConstPairValuePtr(word) {}
};

/// One key's result from PairTable::InsertBatch.
struct PairSlotRef {
  /// The value stored under the key; valid until the table's next
  /// mutating call (Insert, InsertBatch, Set, Reserve, Clear, a load).
  PairValuePtr value;
  /// True when this call inserted the key: its first occurrence in the
  /// batch, absent before the call.
  bool inserted = false;
};

class PairTable {
 public:
  /// Keys InsertBatch looks ahead when prefetching home slots: enough
  /// outstanding loads to cover a DRAM miss per probe on tables that
  /// outgrow the cache. Callers walking pinned slots use the same window.
  static constexpr size_t kPrefetchDistance = 16;

  PairTable() { Rehash(kInitialCapacity); }

  /// True when the word can hold `value` under `key`: both ids in
  /// [0, 2^31) and distinct, and `value` one of them, -1 or
  /// kUnresolvedWinner. LoadPairTable's test for untrusted bytes.
  static bool CanHold(uint64_t key, int64_t value);

  /// Handle to the value stored under `key`, or null when absent. The
  /// handle is invalidated by any mutation.
  PairValuePtr Find(uint64_t key) {
    uint64_t* word = Probe(key, pair_word::KeyBits(key));
    return *word != 0 ? PairValuePtr(word) : PairValuePtr();
  }
  ConstPairValuePtr Find(uint64_t key) const {
    return const_cast<PairTable*>(this)->Find(key);
  }

  /// Inserts `value` under `key` when absent; returns the value handle
  /// either way and reports which through `inserted` (may be null). The
  /// unordered_map::emplace shape the engine's barrier merge needs.
  PairValuePtr Insert(uint64_t key, ElementId value, bool* inserted = nullptr) {
    MaybeGrow();
    const PairSlotRef ref = Claim(key, value);
    if (inserted != nullptr) *inserted = ref.inserted;
    return ref.value;
  }

  /// Batch Insert: inserts `value` under every absent key of `keys` and
  /// finds every present one, writing keys[i]'s slot to out[i]. A key
  /// repeated within the batch is inserted at its first occurrence only.
  /// The arena grows at most once, before the walk (room for every key
  /// being new), so all of out's handles stay pinned together until the
  /// next mutation; the walk prefetches the home slot kPrefetchDistance
  /// keys ahead. Entries and flags match calling Insert on each key in
  /// order; only the capacity may end up larger.
  void InsertBatch(std::span<const uint64_t> keys, ElementId value,
                   std::span<PairSlotRef> out);

  /// Insert-or-assign.
  void Set(uint64_t key, ElementId value) {
    bool inserted = false;
    const PairValuePtr slot = Insert(key, value, &inserted);
    if (!inserted) *slot = value;
  }

  /// Grows the arena now so the next `additional` Insert calls cannot
  /// rehash — which pins value handles for that window. The worker
  /// models' two-pass batch walks rely on this: pass 1 reserves, inserts
  /// and caches handles; pass 2 writes through them draw by draw.
  void Reserve(int64_t additional) {
    CROWDMAX_DCHECK(additional >= 0);
    const size_t needed = static_cast<size_t>(size_ + additional);
    size_t capacity = words_.size();
    // Same 7/8 load ceiling as MaybeGrow.
    while (needed > capacity - (capacity >> 3)) capacity *= 2;
    if (capacity != words_.size()) Rehash(capacity);
  }

  /// Drops every entry by zeroing the arena in one pass; capacity is
  /// retained. Called by LoadPairTable.
  void Clear();

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots in the arena: a power of two, never shrunk.
  size_t capacity() const { return words_.size(); }

  /// Entries sorted by key — the canonical order for serialization and
  /// deterministic iteration.
  std::vector<std::pair<uint64_t, ElementId>> SortedEntries() const;

  /// Visits every entry as (packed key, value) in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const uint64_t word : words_) {
      if (word != 0) fn(pair_word::KeyOf(word), pair_word::Decode(word));
    }
  }

 private:
  static constexpr size_t kInitialCapacity = 64;  // Power of two.

  // Where `key`'s probe chain starts. Fibonacci-hashes the packed key so
  // pairs (dense ids in both words) spread over the power-of-two table.
  size_t HomeIndex(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  // First word holding `key_bits` (`key`'s), else the first empty word of
  // the probe chain.
  uint64_t* Probe(uint64_t key, uint64_t key_bits) {
    size_t index = HomeIndex(key);
    while (true) {
      uint64_t* word = &words_[index];
      if (*word == 0 || (*word & ~pair_word::kCodeMask) == key_bits) {
        return word;
      }
      index = (index + 1) & mask_;
    }
  }

  // Insert without the growth check: the caller has made room.
  PairSlotRef Claim(uint64_t key, ElementId value) {
    CROWDMAX_DCHECK((key >> 32) != (key & 0xffffffffULL));
    const uint64_t key_bits = pair_word::KeyBits(key);
    uint64_t* word = Probe(key, key_bits);
    const bool fresh = *word == 0;
    if (fresh) {
      *word = pair_word::Encode(key_bits, value);
      ++size_;
    }
    return {PairValuePtr(word), fresh};
  }

  void MaybeGrow() {
    // Grow at 7/8 load so probe chains stay short.
    if (static_cast<size_t>(size_) + 1 >
        words_.size() - (words_.size() >> 3)) {
      Rehash(words_.size() * 2);
    }
  }

  void Rehash(size_t capacity);

  std::vector<uint64_t> words_;
  size_t mask_ = 0;
  int shift_ = 0;  // 64 - log2(capacity), for the multiplicative hash.
  int64_t size_ = 0;
};

/// Canonical checkpoint serialization: byte-identical to
/// CheckpointWriter::WriteSortedMap over an unordered_map with the same
/// entries (U64 count, then sorted (I64 key, I64 value) pairs). The load
/// latches kFailedPrecondition in `reader` for an entry the table cannot
/// hold (see PairTable::CanHold).
void SavePairTable(CheckpointWriter* writer, const PairTable& table);
void LoadPairTable(CheckpointReader* reader, PairTable* table);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_PAIR_TABLE_H_
