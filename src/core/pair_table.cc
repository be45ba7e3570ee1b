#include "core/pair_table.h"

#include <algorithm>

#include "core/checkpoint.h"

namespace crowdmax {

void PairTable::Rehash(size_t capacity) {
  CROWDMAX_CHECK((capacity & (capacity - 1)) == 0);
  std::vector<Slot> old = std::move(slots_);
  const uint32_t old_epoch = epoch_;
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  epoch_ = 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.epoch == old_epoch) Claim(slot.key, slot.value);
  }
}

void PairTable::InsertBatch(std::span<const uint64_t> keys, ElementId value,
                            std::span<PairSlotRef> out) {
  CROWDMAX_CHECK(out.size() >= keys.size());
  Reserve(static_cast<int64_t>(keys.size()));
  const size_t n = keys.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      __builtin_prefetch(&slots_[HomeIndex(keys[i + kPrefetchDistance])],
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
    const ElementId value = static_cast<ElementId>(reader->ReadI64());
    table->Set(key, value);
  }
}

}  // namespace crowdmax
