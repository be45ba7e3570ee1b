// The comparison-oracle boundary between algorithms and workers.
//
// Every worker interaction in crowdmax flows through Comparator::Compare,
// which returns the element the worker believes is larger and counts the
// comparison, or through the batch interface of VoteBatchComparator, whose
// draws are exactly Compare's. Model-backed comparators live in
// worker_model.h; memoization (Appendix A, optimization 1) is the round
// engine's pair cache (core/round_engine.h).
//
// Thread-safety contract: a Comparator instance is NOT thread-safe — its
// comparison counter, any internal Rng, and any per-pair caches are plain
// (unsynchronized) state. The parallel tournament engine
// (core/round_engine.h) therefore never shares an instance across
// threads: it derives one independent child per concurrent unit of work via
// Fork(seed) — with the seed fixed *before* dispatch, never by thread
// schedule — and merges each child's paid-comparison count back into the
// parent with AddComparisons() at a single-threaded round barrier (a
// sharded counter, one shard per fork).

#ifndef CROWDMAX_CORE_COMPARATOR_H_
#define CROWDMAX_CORE_COMPARATOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/instance.h"

namespace crowdmax {

class CheckpointReader;
class CheckpointWriter;
class LossMatrix;
class VoteBatchComparator;

/// One comparison task: ask a worker which of the two elements is larger.
/// The argument order is preserved all the way to the worker (adversarial
/// policies like kFirstLoses depend on it). Shared by the Comparator batch
/// interface, the round engine and the executor stack.
using ComparisonPair = std::pair<ElementId, ElementId>;

/// Comparator::IdLimit of a comparator that knows no instance: it accepts
/// every non-negative id.
inline constexpr int64_t kNoIdLimit = std::numeric_limits<int64_t>::max();

/// Pairwise comparison oracle. Compare(a, b) returns a or b — the element
/// the worker reports as having the larger value — and increments the
/// comparison counter. Implementations may be randomized (model-backed) or
/// adversarial; callers must not assume consistency across repeated queries
/// unless the concrete comparator documents it.
class Comparator {
 public:
  virtual ~Comparator() = default;

  /// Asks one worker to compare distinct elements `a` and `b`, both below
  /// IdLimit(). Counts one comparison unless the concrete class documents
  /// otherwise.
  virtual ElementId Compare(ElementId a, ElementId b) {
    ++num_comparisons_;
    return DoCompare(a, b);
  }

  /// Total comparisons paid since construction or the last ResetCount().
  int64_t num_comparisons() const { return num_comparisons_; }

  void ResetCount() { num_comparisons_ = 0; }

  /// Derives an independent comparator answering under the same model:
  /// same instance and parameters, but a private RNG stream seeded from
  /// `seed`, a zeroed comparison counter, and no shared mutable state with
  /// this object. The parallel engine gives every concurrent group one
  /// fork, so answers depend only on (group contents, seed), never on the
  /// thread schedule. Per-pair sticky state (persistent-arbitrary ties,
  /// crowd bias) is scoped to the fork: it does not see, and is not copied
  /// back into, the parent.
  ///
  /// Returns nullptr when this comparator cannot be forked (the default);
  /// parallel entry points then report InvalidArgument.
  virtual std::unique_ptr<Comparator> Fork(uint64_t seed) const {
    (void)seed;
    return nullptr;
  }

  /// Folds `n` comparisons paid on forked children into this counter — the
  /// round-barrier merge of the parallel engine's sharded counts. Must be
  /// called from a single thread (the barrier).
  void AddComparisons(int64_t n) { num_comparisons_ += n; }

  /// The batch-at-once vote interface of this comparator, or nullptr when
  /// it only answers per call (the default). Dispatch layers (the round
  /// engine, the executor adapters, the crowd platform) probe this once
  /// and fall back to the per-call virtual path when absent; results are
  /// bit-identical either way (DESIGN.md §14).
  virtual VoteBatchComparator* AsVoteBatch() { return nullptr; }

  /// How many ids this comparator answers: 0 .. IdLimit() - 1, the
  /// elements of its instance. The per-call loops of the round engine and
  /// the comparator executors refuse a pair with any other id before
  /// Compare reads it, as the batch interface refuses it. The default,
  /// kNoIdLimit, is for a comparator that knows no instance.
  virtual int64_t IdLimit() const { return kNoIdLimit; }

  /// Serializes the comparator's full replay state — paid-comparison
  /// counter, RNG stream position, per-pair sticky tables — so a run
  /// restored from a checkpoint (core/checkpoint.h) answers bit-identically
  /// from that point on. The default returns kFailedPrecondition: a
  /// comparator that does not opt in cannot silently resume with a reset
  /// RNG and wrong answers. Each class serializes only its own state; the
  /// owner of a decorator stack walks it explicitly.
  virtual Status SaveState(CheckpointWriter* writer) const;
  virtual Status LoadState(CheckpointReader* reader);

 protected:
  Comparator() = default;
  void CountComparison() { ++num_comparisons_; }

  /// Shared counter section used by every SaveState override.
  Status SaveCounterState(CheckpointWriter* writer) const;
  Status LoadCounterState(CheckpointReader* reader);

 private:
  virtual ElementId DoCompare(ElementId a, ElementId b) = 0;

  int64_t num_comparisons_ = 0;
};

/// Batch-at-once vote generation (DESIGN.md §14). A comparator exposes
/// this interface through Comparator::AsVoteBatch() when it can answer a
/// whole span of independent comparisons in one call, with struct-of-
/// arrays precompute instead of per-pair virtual dispatch.
///
/// Contract (the bit-identity rules every implementation must keep):
///  * GenerateVotes answers the longest valid prefix of `pairs`, writes
///    out[i] for each answered pair, charges exactly that many comparisons
///    to the owning Comparator's counter, and returns the count. A pair
///    with an id outside the instance (negative sentinels included) is
///    refused: it is not answered, not charged, and generation stops
///    there — the partial-batch accounting rule.
///  * The RNG draw sequence is exactly the per-call sequence: answering k
///    pairs via one GenerateVotes call leaves every RNG stream and sticky
///    table in the same state as k sequential Compare calls, so the two
///    paths are interchangeable mid-run (checkpoints round-trip across
///    them).
///  * out.size() >= pairs.size(); out beyond the returned count is
///    unspecified.
class VoteBatchComparator {
 public:
  virtual ~VoteBatchComparator() = default;

  virtual int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                                std::span<ElementId> out) = 0;

  /// Answers one all-play-all tournament (a round engine player unit) in
  /// one call: every pair (players[i], players[j]) with i < j whose bit in
  /// the pair mask `skip` is clear, into `losses`, which the caller has
  /// Reset to players.size() (core/loss_matrix.h: bit j of row i set iff
  /// players[i] lost to players[j]; `skip` has the matrix's layout, empty
  /// = no bit set). `players` are distinct. Returns the number of pairs
  /// answered.
  ///
  /// Contract: GenerateVotes' rules, applied to the group.
  ///  * Votes, the owning Comparator's counter, the RNG stream position
  ///    and the SaveState bytes equal those of one GenerateVotes call over
  ///    the unskipped pairs written out in row-major order.
  ///  * Only the bits of the answered pairs are set. The skipped pairs
  ///    (memo hits the caller already put in the matrix), the diagonal
  ///    and the padding bits beyond k are left untouched:
  ///    LossMatrix::Losses popcounts whole rows.
  ///  * With a player outside the instance the call answers the prefix
  ///    that GenerateVotes would and returns its length; the caller names
  ///    the refused pair.
  ///
  /// The default is that GenerateVotes call: the unskipped pairs are
  /// written out into buffers this object keeps, answered, and folded
  /// into the matrix (FoldAnswers). ThresholdComparator overrides it with
  /// a kernel that writes no pair list (DESIGN.md §14).
  virtual int64_t GenerateTournament(std::span<const ElementId> players,
                                     std::span<const uint64_t> skip,
                                     LossMatrix* losses);

 protected:
  VoteBatchComparator() = default;

 private:
  // The default GenerateTournament's written-out pairs and their answers,
  // reused across calls.
  std::vector<ComparisonPair> tournament_pairs_;
  std::vector<ElementId> tournament_answers_;
};

/// The InvalidArgument a dispatch layer (the round engine, the comparator
/// executors) returns for a pair the batch vote interface refused: one
/// with an id outside the comparator's instance.
Status RefusedPairError(const ComparisonPair& pair);

/// True when both ids of `pair` are in [0, limit), a Comparator::IdLimit:
/// the pairs a per-call path may ask, as the batch interface answers them.
inline bool PairBelow(const ComparisonPair& pair, int64_t limit) {
  return pair.first >= 0 && pair.second >= 0 && pair.first < limit &&
         pair.second < limit;
}

/// Exact comparator: always returns the element with the larger true value
/// (lower id on exact ties). Useful as a ground-truth baseline and in
/// tests. Does not own the instance, which must outlive the comparator.
class OracleComparator : public Comparator {
 public:
  explicit OracleComparator(const Instance* instance);

  /// Deterministic and stateless (beyond the counter): the fork is simply a
  /// fresh oracle over the same instance; `seed` is unused.
  std::unique_ptr<Comparator> Fork(uint64_t seed) const override;

  int64_t IdLimit() const override { return instance_->size(); }

  /// Stateless beyond the counter, so the counter section is the state.
  Status SaveState(CheckpointWriter* writer) const override;
  Status LoadState(CheckpointReader* reader) override;

 private:
  ElementId DoCompare(ElementId a, ElementId b) override;

  const Instance* instance_;
};

/// How an adversarial comparator resolves comparisons of indistinguishable
/// elements (distance <= delta).
enum class AdversarialPolicy {
  /// The first argument loses. 2-MaxFind passes the pivot first in its
  /// elimination scan, so this policy realizes the paper's worst case for
  /// 2-MaxFind ("we make element x lose, such as to maximize the number of
  /// elements that go to the next round", Section 5).
  kFirstLoses,
  /// The element with the lower true value wins, i.e. every hard
  /// comparison is answered wrongly.
  kLowerValueWins,
  /// The element with the higher true value wins (truthful; hard
  /// comparisons cost but never mislead).
  kHigherValueWins,
};

/// Deterministic adversarial comparator under the threshold model: above
/// `delta` it answers truthfully; at or below `delta` it follows the
/// configured policy. Deterministic and repeat-consistent for policies that
/// are symmetric in the arguments; kFirstLoses depends on argument order by
/// design. Does not own the instance.
class AdversarialComparator : public Comparator {
 public:
  AdversarialComparator(const Instance* instance, double delta,
                        AdversarialPolicy policy);

  /// Deterministic and stateless (beyond the counter): the fork answers
  /// identically to the parent; `seed` is unused.
  std::unique_ptr<Comparator> Fork(uint64_t seed) const override;

  int64_t IdLimit() const override { return instance_->size(); }

  /// Stateless beyond the counter, so the counter section is the state.
  Status SaveState(CheckpointWriter* writer) const override;
  Status LoadState(CheckpointReader* reader) override;

 private:
  ElementId DoCompare(ElementId a, ElementId b) override;

  const Instance* instance_;
  double delta_;
  AdversarialPolicy policy_;
};

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_COMPARATOR_H_
