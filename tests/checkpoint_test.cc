// The checkpoint format contract (core/checkpoint.h): typed round trips,
// canonical serialization of unordered containers, the sticky-error
// reader, the magic/version forward-compat gate, the hex transport codec,
// and the CheckpointController snapshot/crash/resume lifecycle. The golden
// suite pins the version-2 byte format itself: a checkpoint captured by an
// older build of this code must keep restoring bit-identically (the file
// tests/golden/checkpoint_v2.hex is regenerated only on deliberate format
// bumps, together with kCheckpointVersion — v2 added the engine's
// speculation counters and the executor's cancelled-comparison tally — or
// on deliberate content changes: since the memo keeps only the pairs that
// can be asked again, its CACH section is smaller, and the capture of the
// full-memo build is kept beside it as checkpoint_v2_full_memo.hex).

#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/round_engine.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

TEST(CheckpointFormatTest, TypedFieldsRoundTrip) {
  CheckpointWriter writer;
  writer.WriteU32(0xDEADBEEFu);
  writer.WriteU64(0xFFFFFFFFFFFFFFFFull);
  writer.WriteI64(-42);
  writer.WriteBool(true);
  writer.WriteBool(false);
  writer.WriteDouble(0.1);
  writer.WriteString("hello checkpoint");
  writer.WriteString("");
  writer.WriteStatus(Status::OK());
  writer.WriteStatus(Status::Unavailable("crowd down").WithRetryAfter(7));
  const std::array<uint64_t, 5> rng_state = {1, 2, 3, 4, 0xABCDull};
  writer.WriteRngState(rng_state);
  writer.WriteIdVector(std::vector<int>{3, -1, 7});
  writer.WriteIdVector(std::vector<int64_t>{1LL << 40});

  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  CheckpointReader reader = std::move(opened).value();
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(reader.ReadI64(), -42);
  EXPECT_TRUE(reader.ReadBool());
  EXPECT_FALSE(reader.ReadBool());
  EXPECT_EQ(reader.ReadDouble(), 0.1);
  EXPECT_EQ(reader.ReadString(), "hello checkpoint");
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_TRUE(reader.ReadStatus().ok());
  Status fault = reader.ReadStatus();
  EXPECT_EQ(fault.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fault.retry_after_steps(), 7);
  EXPECT_EQ(reader.ReadRngState(), rng_state);
  std::vector<int> ints;
  reader.ReadIdVector(&ints);
  EXPECT_EQ(ints, (std::vector<int>{3, -1, 7}));
  std::vector<int64_t> wide;
  reader.ReadIdVector(&wide);
  EXPECT_EQ(wide, (std::vector<int64_t>{1LL << 40}));
  EXPECT_TRUE(reader.Finish().ok()) << reader.Finish().ToString();
}

TEST(CheckpointFormatTest, UnorderedContainersSerializeCanonically) {
  // Same logical contents inserted in different orders must produce the
  // same bytes — the property golden captures depend on.
  std::unordered_map<uint64_t, int64_t> a, b;
  a[9] = 1;
  a[2] = 5;
  a[7] = -3;
  b[7] = -3;
  b[9] = 1;
  b[2] = 5;
  std::unordered_set<int> sa{4, 1, 8}, sb{8, 4, 1};

  CheckpointWriter wa, wb;
  wa.WriteSortedMap(a);
  wa.WriteSortedSet(sa);
  wb.WriteSortedMap(b);
  wb.WriteSortedSet(sb);
  EXPECT_EQ(wa.bytes(), wb.bytes());

  Result<CheckpointReader> opened = CheckpointReader::Open(wa.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  std::unordered_map<uint64_t, int64_t> map_back;
  reader.ReadSortedMap(&map_back);
  EXPECT_EQ(map_back, a);
  std::unordered_set<int> set_back;
  reader.ReadSortedSet(&set_back);
  EXPECT_EQ(set_back, sa);
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(CheckpointFormatTest, OpenRejectsBadMagic) {
  std::string bytes = CheckpointWriter().bytes();
  bytes[0] = 'X';  // Corrupt the magic.
  Result<CheckpointReader> opened = CheckpointReader::Open(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("bad magic"), std::string::npos);
}

TEST(CheckpointFormatTest, OpenRejectsNewerVersionTyped) {
  // A version-3 header written by a future build: today's reader must
  // refuse with a typed status, never misparse.
  std::string bytes = CheckpointWriter().bytes();
  bytes[4] = '\x03';  // Version field, little-endian low byte.
  Result<CheckpointReader> opened = CheckpointReader::Open(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("newer than the supported"),
            std::string::npos);
}

TEST(CheckpointFormatTest, OpenRejectsTruncatedHeader) {
  Result<CheckpointReader> opened = CheckpointReader::Open("CMK");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointFormatTest, TagMismatchLatchesStickyError) {
  CheckpointWriter writer;
  writer.WriteTag(CheckpointTag("AAAA"));
  writer.WriteI64(123);
  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  reader.ExpectTag(CheckpointTag("BBBB"));
  EXPECT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  // Sticky: later reads return zero values and the error survives Finish.
  EXPECT_EQ(reader.ReadI64(), 0);
  EXPECT_FALSE(reader.Finish().ok());
}

TEST(CheckpointFormatTest, TruncationLatchesStickyError) {
  CheckpointWriter writer;
  writer.WriteU32(1);
  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  EXPECT_EQ(reader.ReadU64(), 0u);  // Only 4 bytes remain.
  EXPECT_FALSE(reader.status().ok());
  EXPECT_FALSE(reader.Finish().ok());
}

TEST(CheckpointFormatTest, DamagedStringLengthLatchesTruncation) {
  CheckpointWriter writer;
  writer.WriteU64(~uint64_t{0} - 1);  // A length that wraps pos + n.
  writer.WriteU32(7);
  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reader.status().message().find("truncated"), std::string::npos);
}

TEST(CheckpointFormatTest, DamagedIdVectorLengthLatchesTruncation) {
  CheckpointWriter writer;
  writer.WriteU64(uint64_t{1} << 61);  // Far more ids than bytes.
  writer.WriteI64(3);
  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  std::vector<int32_t> ids;
  reader.ReadIdVector(&ids);
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reader.status().message().find("truncated"), std::string::npos);
}

TEST(CheckpointFormatTest, FinishFlagsTrailingBytes) {
  CheckpointWriter writer;
  writer.WriteI64(1);
  writer.WriteI64(2);
  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  EXPECT_EQ(reader.ReadI64(), 1);
  Status finish = reader.Finish();
  EXPECT_EQ(finish.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(finish.message().find("trailing bytes"), std::string::npos);
}

TEST(CheckpointHexTest, RoundTripsArbitraryBytes) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  Result<std::string> back = CheckpointFromHex(CheckpointToHex(bytes));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bytes);
}

TEST(CheckpointHexTest, IgnoresWhitespaceAcceptsUppercase) {
  Result<std::string> back = CheckpointFromHex("4D 4b\n0A\tfF");
  ASSERT_TRUE(back.ok());
  std::string expected{'\x4D', '\x4B', '\x0A'};
  expected.push_back(static_cast<char>(0xFF));
  EXPECT_EQ(*back, expected);
}

TEST(CheckpointHexTest, RejectsBadDigitsTyped) {
  Result<std::string> bad = CheckpointFromHex("zz");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointControllerTest, SnapshotsOnCadence) {
  CheckpointController controller;
  controller.set_snapshot_every_rounds(3);
  int64_t serialized = 0;
  auto serialize = [&]() -> Result<std::string> {
    ++serialized;
    return std::string("snap") + std::to_string(serialized);
  };
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(controller.OnRoundBoundary(serialize).ok());
  }
  // Boundaries 3 and 6 snapshot; serialization is lazy otherwise.
  EXPECT_EQ(serialized, 2);
  EXPECT_EQ(controller.snapshots_taken(), 2);
  EXPECT_EQ(controller.boundaries_seen(), 7);
  EXPECT_TRUE(controller.has_checkpoint());
  EXPECT_EQ(controller.checkpoint(), "snap2");
  EXPECT_FALSE(controller.crashed());
}

TEST(CheckpointControllerTest, ArmedCrashSnapshotsThenAborts) {
  CheckpointController controller;
  controller.set_snapshot_every_rounds(100);  // Cadence never fires.
  controller.ArmCrashAtBoundary(2);
  auto serialize = []() -> Result<std::string> { return std::string("s"); };
  EXPECT_TRUE(controller.OnRoundBoundary(serialize).ok());
  Status crash = controller.OnRoundBoundary(serialize);
  EXPECT_EQ(crash.code(), StatusCode::kAborted);
  EXPECT_NE(crash.message().find("round boundary 2"), std::string::npos);
  // The crash is recoverable by construction: a snapshot was taken first.
  EXPECT_TRUE(controller.crashed());
  EXPECT_TRUE(controller.has_checkpoint());
  // Boundaries after the armed one do not crash again.
  EXPECT_TRUE(controller.OnRoundBoundary(serialize).ok());
}

TEST(CheckpointControllerTest, RestoreLifecycle) {
  CheckpointController controller;
  EXPECT_EQ(controller.PendingRestore(), nullptr);
  controller.ResumeFrom("bytes");
  ASSERT_NE(controller.PendingRestore(), nullptr);
  EXPECT_EQ(*controller.PendingRestore(), "bytes");
  controller.MarkRestored();
  EXPECT_EQ(controller.PendingRestore(), nullptr);
  EXPECT_EQ(controller.restores(), 1);
}

// --- the golden format suite ----------------------------------------------

// A small, fully deterministic run whose first-round-boundary checkpoint is
// the committed golden capture: filter over a fixed uniform instance with
// an oracle comparator and a memoizing serial engine. Nothing here draws
// from RNG streams, so the checkpoint bytes depend only on the format.
struct GoldenRun {
  Instance instance;
  FilterOptions options;
  std::vector<ElementId> items;
};

GoldenRun MakeGoldenRun() {
  GoldenRun run{MakeInstance(24, /*seed=*/7), FilterOptions(), {}};
  run.options.u_n = 2;
  run.options.memoize = true;
  run.options.global_loss_counter = true;
  for (int i = 0; i < run.instance.size(); ++i) run.items.push_back(i);
  return run;
}

std::string CaptureGoldenCheckpoint(const GoldenRun& run) {
  OracleComparator comparator(&run.instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
  CheckpointController controller;
  controller.ArmCrashAtBoundary(1);
  engine->set_checkpoint(&controller);
  Result<FilterResult> crashed =
      RunFilterOnEngine(run.items, run.options, engine.get());
  CROWDMAX_CHECK(!crashed.ok() &&
                 crashed.status().code() == StatusCode::kAborted);
  CROWDMAX_CHECK(controller.has_checkpoint());
  return controller.checkpoint();
}

std::string GoldenPath() {
  return std::string(CROWDMAX_GOLDEN_DIR) + "/checkpoint_v2.hex";
}

// The same run captured by the build whose memo kept every bought pair: a
// v2 checkpoint with a full memo section, which must keep restoring.
std::string FullMemoGoldenPath() {
  return std::string(CROWDMAX_GOLDEN_DIR) + "/checkpoint_v2_full_memo.hex";
}

TEST(CheckpointGoldenTest, CapturedBytesMatchCommittedGolden) {
  const std::string hex = CheckpointToHex(CaptureGoldenCheckpoint(MakeGoldenRun()));
  if (std::getenv("CROWDMAX_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << hex << "\n";
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good())
      << GoldenPath()
      << " missing; run with CROWDMAX_WRITE_GOLDEN=1 to regenerate";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  while (!golden.empty() && (golden.back() == '\n' || golden.back() == '\r')) {
    golden.pop_back();
  }
  EXPECT_EQ(hex, golden)
      << "checkpoint byte format drifted; if deliberate, bump "
         "kCheckpointVersion and regenerate with CROWDMAX_WRITE_GOLDEN=1";
}

// The little-endian bytes CheckpointWriter gives one U64 field.
std::string FieldBytes(uint64_t v) {
  CheckpointWriter writer;
  writer.WriteU64(v);
  return writer.bytes().substr(8);  // After the magic/version header.
}

// The U64 field at byte offset `at` (the inverse of FieldBytes).
uint64_t FieldAt(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  for (size_t i = 8; i-- > 0;) {
    v = (v << 8) | static_cast<unsigned char>(bytes.at(at + i));
  }
  return v;
}

// The memo section of a checkpoint: (packed key, value) in key order.
std::vector<std::pair<uint64_t, int64_t>> MemoEntries(
    const std::string& bytes) {
  const size_t tag_at = bytes.find("CACH");
  CROWDMAX_CHECK(tag_at != std::string::npos);
  const uint64_t count = FieldAt(bytes, tag_at + 4);
  std::vector<std::pair<uint64_t, int64_t>> entries;
  for (uint64_t i = 0; i < count; ++i) {
    const size_t at = tag_at + 4 + 8 + 16 * i;
    entries.emplace_back(FieldAt(bytes, at),
                         static_cast<int64_t>(FieldAt(bytes, at + 8)));
  }
  return entries;
}

TEST(CheckpointGoldenTest, MemoKeepsOnlyPairsOfSurvivors) {
  // The first boundary follows round 1, which bought every pair of its
  // three groups of 8: 84 pairs. Only pairs of two survivors can be asked
  // again, so only they may be in the memo.
  const GoldenRun run = MakeGoldenRun();
  const auto entries = MemoEntries(CaptureGoldenCheckpoint(run));

  // The survivors of round 1: the same run, stopped by a budget that
  // affords round 1 and no more.
  OracleComparator comparator(&run.instance);
  FilterOptions stopped = run.options;
  stopped.max_comparisons = 84;
  Result<FilterResult> round1 =
      FilterCandidates(run.items, stopped, &comparator);
  ASSERT_TRUE(round1.ok()) << round1.status().ToString();
  ASSERT_TRUE(round1->stopped_by_budget);
  ASSERT_EQ(round1->paid_comparisons, 84);
  const std::unordered_set<int64_t> survivors(round1->candidates.begin(),
                                              round1->candidates.end());

  EXPECT_FALSE(entries.empty());
  EXPECT_LT(entries.size(), size_t{84});
  for (const auto& [key, value] : entries) {
    const int64_t high = static_cast<int64_t>(key >> 32);
    const int64_t low = static_cast<int64_t>(key & 0xffffffffULL);
    EXPECT_TRUE(survivors.count(high) == 1 && survivors.count(low) == 1)
        << "memo holds {" << low << ", " << high << "}";
    EXPECT_TRUE(value == high || value == low);
  }
}

TEST(CheckpointGoldenTest, DamagedMemoValueIsRefusedTyped) {
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << GoldenPath() << " missing";
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<std::string> bytes = CheckpointFromHex(buffer.str());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  // The memo section: the CACH tag, the entry count, then the entries in
  // key order. Damage the first entry's answer: store the higher id plus
  // one instead, neither id of the pair and not a sentinel.
  const auto entries = MemoEntries(*bytes);
  ASSERT_FALSE(entries.empty());
  const auto [key, value] = entries.front();
  ASSERT_TRUE(value == static_cast<int64_t>(key >> 32) ||
              value == static_cast<int64_t>(key & 0xffffffffULL));
  const size_t key_at = bytes->find("CACH") + 4 + 8;
  ASSERT_EQ(bytes->substr(key_at + 8, 8),
            FieldBytes(static_cast<uint64_t>(value)));
  bytes->replace(key_at + 8, 8, FieldBytes((key >> 32) + 1));

  const GoldenRun run = MakeGoldenRun();
  OracleComparator comparator(&run.instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
  CheckpointController controller;
  controller.ResumeFrom(*bytes);
  engine->set_checkpoint(&controller);
  Result<FilterResult> resumed =
      RunFilterOnEngine(run.items, run.options, engine.get());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("pair-cache entry"),
            std::string::npos)
      << resumed.status().ToString();
}

// Resumes the golden run from `bytes` on a fresh stack and checks that it
// finishes bit-identically to the uninterrupted run — the forward-compat
// contract in action.
void ExpectResumeMatchesBaseline(const std::string& bytes) {
  const GoldenRun run = MakeGoldenRun();

  // The uninterrupted baseline.
  OracleComparator baseline_comparator(&run.instance);
  std::unique_ptr<RoundEngine> baseline_engine =
      RoundEngine::CreateSerial(&baseline_comparator, /*memoize=*/true);
  Result<FilterResult> baseline =
      RunFilterOnEngine(run.items, run.options, baseline_engine.get());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // A fresh stack resumed from the capture.
  OracleComparator comparator(&run.instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
  CheckpointController controller;
  controller.ResumeFrom(bytes);
  engine->set_checkpoint(&controller);
  Result<FilterResult> resumed =
      RunFilterOnEngine(run.items, run.options, engine.get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(controller.restores(), 1);
  EXPECT_EQ(resumed->candidates, baseline->candidates);
  EXPECT_EQ(resumed->paid_comparisons,
            baseline->paid_comparisons);
  EXPECT_EQ(resumed->issued_comparisons,
            baseline->issued_comparisons);
  EXPECT_EQ(resumed->rounds, baseline->rounds);
  EXPECT_EQ(comparator.num_comparisons(),
            baseline_comparator.num_comparisons());
}

TEST(CheckpointGoldenTest, CommittedGoldenStillRestores) {
  for (const std::string& path : {GoldenPath(), FullMemoGoldenPath()}) {
    SCOPED_TRACE(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << path << " missing; run with CROWDMAX_WRITE_GOLDEN=1 to regenerate";
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<std::string> bytes = CheckpointFromHex(buffer.str());
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ExpectResumeMatchesBaseline(*bytes);
  }
}

}  // namespace
}  // namespace crowdmax
