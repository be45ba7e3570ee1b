// PairTable (core/pair_table.h): the open-addressed pair-key table behind
// the engine's memo and shared caches and the worker models' sticky
// answers. These suites pin
//  * the single-key API — Insert / Find / Set, including the engine's -1
//    in-flight reservation and kUnresolvedWinner parking values;
//  * growth and pinning — doubling from the initial 64 slots keeps every
//    entry, and Reserve(k) pins value handles across k inserts;
//  * the one-pass Clear (empty, arena kept) and the checkpoint round trip;
//  * InsertBatch, the engine's cache resolve, against a loop of single
//    Insert calls: same new-key flags, values and entries, and one grow;
//  * the 8-byte word's four value codes at the id range's edges, and the
//    value contract: a value the word cannot hold dies on store and is
//    refused with a typed error on load.

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/pair_key.h"
#include "core/pair_table.h"
#include "core/round_engine.h"

namespace crowdmax {
namespace {

TEST(PairTableTest, InsertFindSetKeepSentinelValues) {
  PairTable table;
  const uint64_t reserved = PackPairKey(1, 2);
  const uint64_t parked = PackPairKey(3, 4);
  const uint64_t answered = PackPairKey(5, 6);
  EXPECT_EQ(table.Find(reserved), nullptr);

  bool inserted = false;
  PairValuePtr slot = table.Insert(reserved, -1, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*slot, -1);
  // A second Insert finds the entry and leaves its value alone.
  EXPECT_EQ(table.Insert(reserved, 2, &inserted), slot);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*table.Find(reserved), -1);

  table.Set(parked, kUnresolvedWinner);
  table.Set(answered, 6);
  EXPECT_EQ(*table.Find(parked), kUnresolvedWinner);
  EXPECT_EQ(*table.Find(answered), 6);
  table.Set(parked, 4);  // Set overwrites a present key.
  EXPECT_EQ(*table.Find(parked), 4);
  EXPECT_EQ(table.size(), 3);

  // The key is unordered: (b, a) finds what (a, b) stored.
  EXPECT_EQ(table.Find(PackPairKey(2, 1)), table.Find(reserved));
  const PairTable& view = table;
  EXPECT_EQ(view.Find(answered), table.Find(answered));
}

TEST(PairTableTest, GrowthThroughTenDoublingsKeepsEveryEntry) {
  PairTable table;
  EXPECT_EQ(table.capacity(), 64u);
  const int64_t n = 64 << 10;
  for (int64_t i = 0; i < n; ++i) {
    table.Set(PackPairKey(static_cast<ElementId>(i),
                          static_cast<ElementId>(i + 1)),
              static_cast<ElementId>(i % 5 == 0 ? kUnresolvedWinner : i));
  }
  EXPECT_EQ(table.size(), n);
  EXPECT_GE(table.capacity(), size_t{64} << 10);
  for (int64_t i = 0; i < n; ++i) {
    const PairValuePtr slot = table.Find(PackPairKey(
        static_cast<ElementId>(i), static_cast<ElementId>(i + 1)));
    ASSERT_NE(slot, nullptr) << i;
    EXPECT_EQ(*slot, i % 5 == 0 ? kUnresolvedWinner : i);
  }
  EXPECT_EQ(table.Find(PackPairKey(0, 2)), nullptr);
}

TEST(PairTableTest, ReserveKeepsPointersAcrossThatManyInserts) {
  PairTable table;
  const int64_t k = 5000;
  table.Set(PackPairKey(0, 1), 1);
  table.Reserve(k);
  const size_t capacity = table.capacity();
  PairValuePtr pinned = table.Find(PackPairKey(0, 1));
  for (int64_t i = 0; i < k; ++i) {
    table.Insert(PackPairKey(static_cast<ElementId>(i + 2),
                             static_cast<ElementId>(i + 3)),
                 static_cast<ElementId>(i + 2));
  }
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.Find(PackPairKey(0, 1)), pinned);
  *pinned = 0;
  EXPECT_EQ(*table.Find(PackPairKey(0, 1)), 0);
}

TEST(PairTableTest, ClearEmptiesWithoutShrinking) {
  PairTable table;
  for (ElementId i = 0; i < 1000; ++i) table.Set(PackPairKey(i, i + 1), i);
  const size_t capacity = table.capacity();
  ASSERT_GT(capacity, 64u);
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.Find(PackPairKey(0, 1)), nullptr);
  EXPECT_TRUE(table.SortedEntries().empty());
  // Cleared slots are reusable and re-report as new.
  bool inserted = false;
  table.Insert(PackPairKey(0, 1), 1, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.size(), 1);
}

TEST(PairTableTest, SaveLoadRoundTrip) {
  PairTable table;
  std::unordered_map<uint64_t, ElementId> reference;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const auto a = static_cast<ElementId>(rng.NextBounded(500));
    const auto b = static_cast<ElementId>((a + 1 + rng.NextBounded(499)) % 500);
    const ElementId value = i % 7 == 0 ? kUnresolvedWinner : a;
    table.Set(PackPairKey(a, b), value);
    reference[PackPairKey(a, b)] = value;
  }
  CheckpointWriter writer;
  SavePairTable(&writer, table);
  // The encoding is the sorted-map one the checkpoint goldens pin.
  CheckpointWriter map_writer;
  map_writer.WriteSortedMap(reference);
  EXPECT_EQ(writer.bytes(), map_writer.bytes());

  Result<CheckpointReader> reader = CheckpointReader::Open(writer.Take());
  ASSERT_TRUE(reader.ok());
  PairTable loaded;
  loaded.Set(PackPairKey(900, 901), 900);  // Dropped by the load.
  LoadPairTable(&*reader, &loaded);
  ASSERT_TRUE(reader->Finish().ok());
  EXPECT_EQ(loaded.SortedEntries(), table.SortedEntries());
  EXPECT_EQ(loaded.size(), static_cast<int64_t>(reference.size()));
}

// InsertBatch against the loop it replaces: for `keys` applied to two
// tables with identical contents, same flags, same values behind the
// returned pointers, same final entries.
void ExpectBatchMatchesInsertLoop(PairTable* batch_table,
                                  PairTable* loop_table,
                                  const std::vector<uint64_t>& keys,
                                  ElementId value) {
  std::vector<PairSlotRef> slots(keys.size());
  batch_table->InsertBatch(keys, value, slots);
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    const ElementId expected = *loop_table->Insert(keys[i], value, &inserted);
    EXPECT_EQ(slots[i].inserted, inserted) << "key index " << i;
    EXPECT_EQ(*slots[i].value, expected) << "key index " << i;
    EXPECT_EQ(slots[i].value, batch_table->Find(keys[i])) << "key index " << i;
  }
  EXPECT_EQ(batch_table->size(), loop_table->size());
  EXPECT_EQ(batch_table->SortedEntries(), loop_table->SortedEntries());
}

TEST(PairTableTest, InsertBatchMatchesInsertLoop) {
  PairTable batch_table;
  PairTable loop_table;
  // Pre-existing keys, one of them a parked sentinel.
  for (ElementId i = 0; i < 40; ++i) {
    const ElementId value = i == 3 ? kUnresolvedWinner : i;
    batch_table.Set(PackPairKey(i, i + 100), value);
    loop_table.Set(PackPairKey(i, i + 100), value);
  }
  std::vector<uint64_t> keys;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const auto a = static_cast<ElementId>(rng.NextBounded(120));
    keys.push_back(i % 4 == 0 ? PackPairKey(a % 40, a % 40 + 100)  // present
                              : PackPairKey(a, a + 1 + static_cast<ElementId>(
                                                       rng.NextBounded(60))));
  }
  keys.push_back(keys.front());  // A repeat of the batch's first key.
  ExpectBatchMatchesInsertLoop(&batch_table, &loop_table, keys, -1);
}

TEST(PairTableTest, InsertBatchGrowsOnceAndPinsEverySlot) {
  PairTable table;
  PairTable loop_table;
  std::vector<uint64_t> keys;
  for (ElementId i = 0; i < 20000; ++i) keys.push_back(PackPairKey(i, i + 7));
  keys.push_back(PackPairKey(0, 7));  // In-batch duplicate of key 0.
  ExpectBatchMatchesInsertLoop(&table, &loop_table, keys, kUnresolvedWinner);
  // One grow, straight from 64 slots to room for the whole batch.
  EXPECT_EQ(table.capacity(), size_t{32768});
  EXPECT_TRUE(table.Find(PackPairKey(0, 7)) != nullptr);

  // A batch that fits pins pointers taken before it too: no rehash.
  PairValuePtr before = table.Find(PackPairKey(5, 12));
  std::vector<uint64_t> more = {PackPairKey(5, 12), PackPairKey(1, 2)};
  std::vector<PairSlotRef> slots(more.size());
  table.InsertBatch(more, -1, slots);
  EXPECT_EQ(slots[0].value, before);
  EXPECT_FALSE(slots[0].inserted);
  EXPECT_TRUE(slots[1].inserted);
  EXPECT_EQ(*slots[1].value, -1);
}

TEST(PairTableTest, InsertBatchOfNothingIsANoOp) {
  PairTable table;
  table.Set(PackPairKey(1, 2), 1);
  std::vector<PairSlotRef> slots;
  table.InsertBatch({}, -1, slots);
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.capacity(), 64u);
}

// The four value codes of the 8-byte word, on pairs at the edges of the
// 31-bit id fields: id 0 (an all-zero field) and id 2^31 - 1 (all ones).
constexpr ElementId kMaxId = 2147483647;

const std::vector<ComparisonPair>& EdgePairs() {
  static const std::vector<ComparisonPair> pairs = {
      {0, 1}, {1, 0}, {0, kMaxId}, {kMaxId - 1, kMaxId}, {kMaxId, 5}};
  return pairs;
}

// The value stored for `pair` under code `code`: the lower id, the higher
// id, the in-flight reservation or the unresolved parking.
ElementId ValueOfCode(const ComparisonPair& pair, int code) {
  switch (code) {
    case 0:
      return std::min(pair.first, pair.second);
    case 1:
      return std::max(pair.first, pair.second);
    case 2:
      return -1;
    default:
      return kUnresolvedWinner;
  }
}

TEST(PairTableCodeTest, EveryCodeSurvivesInsertSetFindAndInsertBatch) {
  for (const ComparisonPair& pair : EdgePairs()) {
    const uint64_t key = PackPairKey(pair.first, pair.second);
    for (int code = 0; code < 4; ++code) {
      const ElementId value = ValueOfCode(pair, code);
      SCOPED_TRACE(testing::Message() << "pair {" << pair.first << ", "
                                      << pair.second << "} code " << code);
      PairTable inserted;
      EXPECT_EQ(*inserted.Insert(key, value), value);
      EXPECT_EQ(*inserted.Find(key), value);

      PairTable batched;
      std::vector<PairSlotRef> slots(1);
      batched.InsertBatch(std::vector<uint64_t>{key}, value, slots);
      ASSERT_TRUE(slots[0].inserted);
      EXPECT_EQ(*slots[0].value, value);
      EXPECT_EQ(batched.SortedEntries(), inserted.SortedEntries());

      // Every code overwrites every other, by Set and through a handle.
      for (int next = 0; next < 4; ++next) {
        const ElementId other = ValueOfCode(pair, next);
        inserted.Set(key, other);
        EXPECT_EQ(*inserted.Find(key), other);
        *inserted.Find(key) = value;
        EXPECT_EQ(*std::as_const(inserted).Find(key), value);
      }
      EXPECT_EQ(inserted.size(), 1);
      const auto entries = inserted.SortedEntries();
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(entries[0].first, key);
      EXPECT_EQ(entries[0].second, value);
    }
  }
}

TEST(PairTableCodeTest, EveryCodeSurvivesGrowthAndSaveLoad) {
  for (int code = 0; code < 4; ++code) {
    SCOPED_TRACE(testing::Message() << "code " << code);
    PairTable table;
    std::unordered_map<uint64_t, ElementId> reference;
    for (const ComparisonPair& pair : EdgePairs()) {
      const uint64_t key = PackPairKey(pair.first, pair.second);
      table.Set(key, ValueOfCode(pair, code));
      reference[key] = ValueOfCode(pair, code);
    }
    // Filler entries with every code force ten doublings.
    for (ElementId i = 10; i < 60000; ++i) {
      const ComparisonPair pair = {i, i + 1};
      const ElementId value = ValueOfCode(pair, i % 4);
      table.Set(PackPairKey(i, i + 1), value);
      reference[PackPairKey(i, i + 1)] = value;
    }
    EXPECT_GE(table.capacity(), size_t{64} << 10);
    for (const auto& [key, value] : reference) {
      const ConstPairValuePtr slot = std::as_const(table).Find(key);
      ASSERT_NE(slot, nullptr) << key;
      EXPECT_EQ(*slot, value) << key;
    }

    CheckpointWriter writer;
    SavePairTable(&writer, table);
    CheckpointWriter map_writer;
    map_writer.WriteSortedMap(reference);
    EXPECT_EQ(writer.bytes(), map_writer.bytes());
    Result<CheckpointReader> reader = CheckpointReader::Open(writer.Take());
    ASSERT_TRUE(reader.ok());
    PairTable loaded;
    LoadPairTable(&*reader, &loaded);
    ASSERT_TRUE(reader->Finish().ok()) << reader->status().ToString();
    EXPECT_EQ(loaded.SortedEntries(), table.SortedEntries());
  }
}

TEST(PairTableDeathTest, StoringAValueThatIsNotAnIdOfThePairDies) {
  PairTable table;
  EXPECT_DEATH(table.Set(PackPairKey(1, 2), 3), "not an id of its pair");
  EXPECT_DEATH(table.Insert(PackPairKey(0, kMaxId), kMaxId - 1),
               "not an id of its pair");
  std::vector<PairSlotRef> slots(1);
  EXPECT_DEATH(
      table.InsertBatch(std::vector<uint64_t>{PackPairKey(3, 4)}, -3, slots),
      "not an id of its pair");
  table.Set(PackPairKey(1, 2), 1);
  EXPECT_DEATH(*table.Find(PackPairKey(1, 2)) = 0, "not an id of its pair");
}

// One serialized entry, as SavePairTable writes it.
std::string OneEntryBytes(uint64_t key, int64_t value) {
  CheckpointWriter writer;
  writer.WriteU64(1);
  writer.WriteI64(static_cast<int64_t>(key));
  writer.WriteI64(value);
  return writer.Take();
}

TEST(PairTableCodeTest, LoadRefusesEntriesTheWordCannotHoldTyped) {
  const uint64_t low_id_too_big = (uint64_t{5} << 32) | (uint64_t{1} << 31);
  const uint64_t high_id_too_big = (uint64_t{1} << 63) | 5;
  const struct {
    uint64_t key;
    int64_t value;
  } refused[] = {
      {low_id_too_big, 5},
      {high_id_too_big, 5},
      {PackPairKey(4, 4), 4},               // Two equal ids.
      {PackPairKey(1, 2), 3},               // Not an id of the pair.
      {PackPairKey(1, 2), -3},              // Not a sentinel.
      {PackPairKey(1, 2), (int64_t{1} << 32) | 1},  // Truncates to 1.
  };
  for (const auto& entry : refused) {
    SCOPED_TRACE(testing::Message()
                 << "key " << entry.key << " value " << entry.value);
    Result<CheckpointReader> reader =
        CheckpointReader::Open(OneEntryBytes(entry.key, entry.value));
    ASSERT_TRUE(reader.ok());
    PairTable table;
    LoadPairTable(&*reader, &table);
    EXPECT_EQ(reader->status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(reader->status().message().find("pair-cache entry"),
              std::string::npos);
    EXPECT_TRUE(table.empty());
  }
  // The edges themselves load.
  Result<CheckpointReader> reader =
      CheckpointReader::Open(OneEntryBytes(PackPairKey(0, kMaxId), kMaxId));
  ASSERT_TRUE(reader.ok());
  PairTable table;
  LoadPairTable(&*reader, &table);
  ASSERT_TRUE(reader->Finish().ok());
  EXPECT_EQ(*table.Find(PackPairKey(0, kMaxId)), kMaxId);
}

}  // namespace
}  // namespace crowdmax
