// Crash-safe checkpointing of in-flight runs.
//
// A checkpoint is a versioned, deterministic byte string capturing
// everything a RoundEngine drive needs to resume bit-identically after a
// process crash: the RoundSource's algorithm state, the engine's pair memo
// and SharedPairCache entries, budget/step counters, and every RNG stream
// position in the comparator/executor stack. Snapshots are taken only at
// clean round boundaries (no round in flight, no open round trace span),
// so a resumed run replays the remaining rounds exactly — same results,
// same counters, same trace cells — as an uninterrupted run.
//
// Determinism contract: serialization is canonical. Unordered containers
// are written in sorted key order and all integers are fixed-width
// little-endian, so the same logical state always yields the same bytes on
// every platform. That is what makes golden-capture tests of the format
// possible (tests/checkpoint_test.cc).
//
// Layering: this header depends only on common/status.h. The things being
// serialized (engines, sources, comparators, executors) each expose
// SaveState/LoadState taking a writer/reader, so the format lives in one
// place and the state lives with its owner.

#ifndef CROWDMAX_CORE_CHECKPOINT_H_
#define CROWDMAX_CORE_CHECKPOINT_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace crowdmax {

/// First 8 bytes of every checkpoint: magic then format version.
inline constexpr uint32_t kCheckpointMagic = 0x504B4D43;  // "CMKP" in LE
inline constexpr uint32_t kCheckpointVersion = 2;

/// Four-character section tag, e.g. CheckpointTag("ENG "). Tags delimit the
/// sections of a checkpoint so a reader that drifts out of sync fails with
/// a typed mismatch instead of silently misinterpreting bytes.
constexpr uint32_t CheckpointTag(const char (&s)[5]) {
  return static_cast<uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

/// Appends typed fields to a checkpoint byte string. The constructor writes
/// the magic/version header; everything else is explicit little-endian.
class CheckpointWriter {
 public:
  CheckpointWriter();

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteBool(bool v);
  void WriteDouble(double v);
  void WriteString(const std::string& v);
  void WriteStatus(const Status& v);
  void WriteRngState(const std::array<uint64_t, 5>& state);
  void WriteTag(uint32_t tag) { WriteU32(tag); }

  /// Length-prefixed vector of integer ids (any integral element type;
  /// always serialized as I64 so the encoding is width-independent).
  template <typename T>
  void WriteIdVector(const std::vector<T>& ids) {
    WriteU64(static_cast<uint64_t>(ids.size()));
    for (T id : ids) WriteI64(static_cast<int64_t>(id));
  }

  /// Canonical serialization of an unordered map/set: entries sorted by
  /// key. `Container::value_type` must be a pair for maps; use the
  /// single-argument form for sets.
  template <typename Map>
  void WriteSortedMap(const Map& map) {
    std::vector<typename Map::key_type> keys;
    keys.reserve(map.size());
    for (const auto& entry : map) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    WriteU64(static_cast<uint64_t>(keys.size()));
    for (const auto& key : keys) {
      WriteI64(static_cast<int64_t>(key));
      WriteI64(static_cast<int64_t>(map.at(key)));
    }
  }

  template <typename Set>
  void WriteSortedSet(const Set& set) {
    std::vector<typename Set::key_type> keys(set.begin(), set.end());
    std::sort(keys.begin(), keys.end());
    WriteU64(static_cast<uint64_t>(keys.size()));
    for (const auto& key : keys) WriteI64(static_cast<int64_t>(key));
  }

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Reads typed fields back out of a checkpoint byte string. Errors are
/// sticky: the first truncation or tag mismatch latches into status() and
/// every later read returns a zero value, so call sites check once after a
/// batch of reads instead of after every field.
class CheckpointReader {
 public:
  /// Validates the magic/version header. A wrong magic or a version newer
  /// than kCheckpointVersion yields a typed kFailedPrecondition — the
  /// forward-compat contract tested by tests/checkpoint_test.cc.
  static Result<CheckpointReader> Open(std::string bytes);

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  bool ReadBool();
  double ReadDouble();
  std::string ReadString();
  Status ReadStatus();
  std::array<uint64_t, 5> ReadRngState();
  std::vector<int64_t> ReadIdVector();

  /// Typed counterpart of the templated WriteIdVector.
  template <typename T>
  void ReadIdVector(std::vector<T>* out) {
    out->clear();
    const uint64_t n = ReadU64();
    // No reserve: a corrupt length must not drive a huge allocation (see
    // the untemplated overload); the per-read bounds check fails fast.
    for (uint64_t i = 0; i < n && status_.ok(); ++i) {
      out->push_back(static_cast<T>(ReadI64()));
    }
  }

  /// Consumes a tag and latches an error if it is not `tag`.
  void ExpectTag(uint32_t tag);

  /// Latches kFailedPrecondition with `message` unless an error is
  /// already latched: for a caller that finds well-formed bytes carrying
  /// a value it cannot accept.
  void Reject(const std::string& message);

  template <typename Map>
  void ReadSortedMap(Map* map) {
    map->clear();
    const uint64_t n = ReadU64();
    for (uint64_t i = 0; i < n && status_.ok(); ++i) {
      const auto key =
          static_cast<typename Map::key_type>(ReadI64());
      const auto value =
          static_cast<typename Map::mapped_type>(ReadI64());
      map->emplace(key, value);
    }
  }

  template <typename Set>
  void ReadSortedSet(Set* set) {
    set->clear();
    const uint64_t n = ReadU64();
    for (uint64_t i = 0; i < n && status_.ok(); ++i) {
      set->insert(static_cast<typename Set::key_type>(ReadI64()));
    }
  }

  bool AtEnd() const { return pos_ >= bytes_.size(); }
  const Status& status() const { return status_; }

  /// status(), plus kFailedPrecondition when trailing bytes remain.
  Status Finish() const;

 private:
  explicit CheckpointReader(std::string bytes) : bytes_(std::move(bytes)) {}
  bool Take(size_t n, const unsigned char** out);

  std::string bytes_;
  size_t pos_ = 0;
  Status status_;
};

/// Lowercase-hex transport encoding, used for committed golden files and
/// for shipping checkpoints through line-oriented tooling.
std::string CheckpointToHex(const std::string& bytes);
Result<std::string> CheckpointFromHex(const std::string& hex);

/// Coordinates round-boundary snapshots, crash injection, and resume for
/// one engine drive. Attach with RoundEngine::set_checkpoint(); hooks run
/// on the drive's coordinating thread only.
///
/// Lifecycle of a chaos kill-and-resume cycle:
///   1. Arm: ArmCrashAtBoundary(k) — the k-th eligible round boundary
///      snapshots and then returns kAborted out of Drive().
///   2. Crash: the caller observes kAborted, tears the whole stack down.
///   3. Resume: build a *fresh* stack (engine, source, comparators) with
///      the same construction parameters, attach a controller carrying
///      ResumeFrom(checkpoint()), and call the same run wrapper again.
///      Drive() restores every layer before its first round; the rerun is
///      bit-identical to the uninterrupted run from that boundary on.
class CheckpointController {
 public:
  CheckpointController() = default;

  /// Snapshot cadence: capture state at every n-th eligible boundary
  /// (1 = every boundary). Snapshots are cheap but not free; bench_chaos
  /// measures the overhead per interval.
  void set_snapshot_every_rounds(int64_t n) {
    CROWDMAX_CHECK(n >= 1);
    snapshot_every_ = n;
  }

  /// Arms a deliberate kAborted at the `boundary`-th eligible round
  /// boundary (1-based). A snapshot is always taken there first, so the
  /// crash is recoverable by construction.
  void ArmCrashAtBoundary(int64_t boundary) {
    CROWDMAX_CHECK(boundary >= 1);
    crash_at_boundary_ = boundary;
  }

  /// Stages `bytes` to be restored into the next drive before its first
  /// round.
  void ResumeFrom(std::string bytes) {
    pending_restore_ = std::move(bytes);
    has_pending_restore_ = true;
  }

  bool has_checkpoint() const { return has_checkpoint_; }
  const std::string& checkpoint() const { return checkpoint_; }
  int64_t boundaries_seen() const { return boundaries_seen_; }
  int64_t snapshots_taken() const { return snapshots_taken_; }
  int64_t restores() const { return restores_; }
  bool crashed() const { return crashed_; }

  // --- engine-facing hooks ------------------------------------------------

  /// Non-null when a staged restore has not been consumed yet.
  const std::string* PendingRestore() const {
    return has_pending_restore_ ? &pending_restore_ : nullptr;
  }
  void MarkRestored() {
    has_pending_restore_ = false;
    ++restores_;
  }

  /// Called by Drive() at each eligible round boundary. `serialize`
  /// produces the snapshot lazily (only invoked when the cadence or an
  /// armed crash wants one). Returns OK to continue, or the armed
  /// kAborted.
  Status OnRoundBoundary(
      const std::function<Result<std::string>()>& serialize);

 private:
  int64_t snapshot_every_ = 1;
  int64_t crash_at_boundary_ = 0;  // 0 = never
  int64_t boundaries_seen_ = 0;
  int64_t snapshots_taken_ = 0;
  int64_t restores_ = 0;
  bool crashed_ = false;
  bool has_checkpoint_ = false;
  std::string checkpoint_;
  bool has_pending_restore_ = false;
  std::string pending_restore_;
};

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_CHECKPOINT_H_
