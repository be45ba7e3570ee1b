#include "core/pair_table.h"

#include <algorithm>
#include <string>

#include "core/checkpoint.h"

namespace crowdmax {

bool PairTable::CanHold(uint64_t key, int64_t value) {
  return (key & pair_word::kKeySignBits) == 0 &&
         (key >> 32) != (key & 0xffffffffULL) &&
         value == static_cast<ElementId>(value) &&
         pair_word::CodeFor(pair_word::KeyBits(key),
                            static_cast<ElementId>(value)) >= 0;
}

void PairTable::Rehash(size_t capacity) {
  CROWDMAX_CHECK((capacity & (capacity - 1)) == 0);
  std::vector<uint64_t> old = std::move(words_);
  words_.assign(capacity, 0);
  mask_ = capacity - 1;
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (const uint64_t word : old) {
    if (word == 0) continue;
    const uint64_t key_bits = word & ~pair_word::kCodeMask;
    *Probe(pair_word::KeyOf(word), key_bits) = word;
  }
}

void PairTable::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
  size_ = 0;
}

void PairTable::InsertBatch(std::span<const uint64_t> keys, ElementId value,
                            std::span<PairSlotRef> out) {
  CROWDMAX_CHECK(out.size() >= keys.size());
  Reserve(static_cast<int64_t>(keys.size()));
  const size_t n = keys.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      __builtin_prefetch(&words_[HomeIndex(keys[i + kPrefetchDistance])],
                         /*rw=*/1);
    }
    out[i] = Claim(keys[i], value);
  }
}

std::vector<std::pair<uint64_t, ElementId>> PairTable::SortedEntries() const {
  std::vector<std::pair<uint64_t, ElementId>> entries;
  entries.reserve(static_cast<size_t>(size_));
  ForEach([&entries](uint64_t key, ElementId value) {
    entries.emplace_back(key, value);
  });
  std::sort(entries.begin(), entries.end());
  return entries;
}

void SavePairTable(CheckpointWriter* writer, const PairTable& table) {
  const auto entries = table.SortedEntries();
  writer->WriteU64(static_cast<uint64_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    writer->WriteI64(static_cast<int64_t>(key));
    writer->WriteI64(static_cast<int64_t>(value));
  }
}

void LoadPairTable(CheckpointReader* reader, PairTable* table) {
  table->Clear();
  const uint64_t n = reader->ReadU64();
  for (uint64_t i = 0; i < n && reader->status().ok(); ++i) {
    const uint64_t key = static_cast<uint64_t>(reader->ReadI64());
    const int64_t value = reader->ReadI64();
    if (!reader->status().ok()) return;
    if (!PairTable::CanHold(key, value)) {
      reader->Reject("pair-cache entry " + std::to_string(i) + " (key " +
                     std::to_string(key) + ", value " +
                     std::to_string(value) +
                     ") is not a pair of distinct ids in [0, 2^31) with "
                     "one of them, -1 or kUnresolvedWinner as its value");
      return;
    }
    table->Set(key, static_cast<ElementId>(value));
  }
}

}  // namespace crowdmax
