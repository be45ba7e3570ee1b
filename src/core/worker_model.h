// Model-backed worker comparators (Sections 3.2-3.3 of the paper).
//
// Three answer models are provided:
//  * ThresholdComparator — the paper's threshold model T(delta, epsilon):
//    above the distance threshold the worker errs with probability epsilon;
//    at or below it the answer is arbitrary, with several selectable
//    "arbitrary" behaviours.
//  * RelativeErrorComparator — the purely probabilistic model where the
//    per-comparison error probability decays with the relative difference
//    of the two values (the DOTS behaviour of Figure 2(a): majority voting
//    drives accuracy to 1).
//  * PersistentBiasComparator — an empirical crowd model reproducing the
//    CARS behaviour of Figure 2(b): below a relative-difference threshold,
//    the crowd holds a persistent per-pair preferred answer that is correct
//    only with probability q, so majority voting plateaus at q instead of
//    converging to 1. This is the phenomenon that motivates experts.
//
// Every model also implements VoteBatchComparator (comparator.h): the
// batch path precomputes per-pair draw thresholds and outcome candidates
// into flat struct-of-arrays scratch, then resolves all draws with the bulk
// RNG kernels (DESIGN.md §16), with results, counters and RNG stream
// positions bit-identical to the per-call DoCompare, which stays the spec
// (DESIGN.md §14). Sticky per-pair state lives in open-addressed
// PairTables (core/pair_table.h) instead of unordered_maps.

#ifndef CROWDMAX_CORE_WORKER_MODEL_H_
#define CROWDMAX_CORE_WORKER_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/comparator.h"
#include "core/instance.h"
#include "core/pair_table.h"

namespace crowdmax {

/// Parameters of the threshold model T(delta, epsilon): workers cannot
/// discriminate elements closer than `delta`, and err with residual
/// probability `epsilon` otherwise. The probabilistic error model is the
/// special case delta == 0.
struct ThresholdModel {
  double delta = 0.0;
  double epsilon = 0.0;

  /// True iff delta >= 0 and epsilon in [0, 1).
  bool Valid() const { return delta >= 0.0 && epsilon >= 0.0 && epsilon < 1.0; }
};

/// How a ThresholdComparator resolves comparisons of indistinguishable
/// elements. The model only says the answer is "completely arbitrary"; these
/// are concrete arbitrary behaviours used in simulation and testing.
enum class TiePolicy {
  /// A fresh fair (or biased, see below_threshold_correct_prob) coin per
  /// query — the behaviour used in the paper's Section 5 simulations
  /// ("each element is chosen as the answer with probability 1/2").
  kFreshCoin,
  /// The answer for each unordered pair is drawn once (uniformly) at the
  /// first query and repeated thereafter — a worker class with a fixed but
  /// arbitrary opinion on hard pairs.
  kPersistentArbitrary,
};

/// Shared struct-of-arrays scratch of the batch vote path: one flat array
/// per precomputed quantity, reused across GenerateVotes calls so the hot
/// loop never allocates after warm-up. `on_true[i]`/`on_false[i]` are the
/// two outcome candidates of the i-th draw; models with sticky tables
/// additionally flag the rows that walk the table instead of drawing
/// directly.
struct VoteBatchScratch {
  std::vector<ElementId> on_true;
  std::vector<ElementId> on_false;
  std::vector<uint8_t> sticky;
  /// Per-row 53-bit integer draw thresholds — the Rng::BernoulliThreshold
  /// mapping of the row's Bernoulli probability, clamped to the draw-free
  /// edges (0 = never true, 2^53 = always true; see DESIGN.md §16). The
  /// draw kernels compare raw 64-bit outputs against these with no float
  /// conversion in the loop; models with constant per-class probabilities
  /// precompute the thresholds once at construction and only copy them
  /// here per row.
  std::vector<uint64_t> threshold;
  /// Draw outcomes of the bulk Bernoulli kernels (0/1 per row).
  std::vector<uint8_t> bits;
  /// Pre-generated raw draws (Rng::FillRaw) consumed in row order by the
  /// sticky-table walks; sized per call to the exact draw count so the
  /// RNG stream position matches the per-call path.
  std::vector<uint64_t> raw;
  /// Sticky-table value handles cached by pass 1 of the two-pass walks.
  /// Valid only within one GenerateVotes call: the table is Reserve()d
  /// up front so pass-1 inserts cannot rehash, which pins the handles
  /// until pass 2 has written the drawn answers through them.
  std::vector<PairValuePtr> slots;

  void Resize(size_t n) {
    on_true.resize(n);
    on_false.resize(n);
    sticky.resize(n);
    threshold.resize(n);
    bits.resize(n);
  }
};

/// Scratch of ThresholdComparator's tournament kernel, reused across
/// calls so the warm loop never allocates. For a group of k players,
/// padded to stride = ceil(k / 64) words per row: the players' values
/// (padded with zeros to stride * 64), and per row one word per 64
/// columns for each value compare (|v_i - v_j| > delta; v_i > v_j, which
/// becomes "players[i] wins" once ties are broken by id), for the skipped
/// pairs over both triangles, and for the pairs of the upper triangle
/// that draw.
struct TournamentScratch {
  std::vector<double> values;
  std::vector<uint64_t> above;
  std::vector<uint64_t> greater;
  std::vector<uint64_t> skipped;
  std::vector<uint64_t> drawn;
};

/// The paper's threshold-model worker over an Instance.
///
/// Above the threshold the higher-valued element wins with probability
/// 1 - epsilon. At or below the threshold the answer follows `tie_policy`;
/// with kFreshCoin the correct element is returned with probability
/// `below_threshold_correct_prob` (0.5 = the unbiased coin of the paper's
/// simulations). Not thread-safe. Does not own the instance.
class ThresholdComparator : public Comparator, public VoteBatchComparator {
 public:
  struct Options {
    ThresholdModel model;
    TiePolicy tie_policy = TiePolicy::kFreshCoin;
    /// P(correct answer) for an indistinguishable pair under kFreshCoin.
    double below_threshold_correct_prob = 0.5;
  };

  ThresholdComparator(const Instance* instance, const Options& options,
                      uint64_t seed);

  /// Convenience constructor for T(delta, epsilon) with a fair coin below
  /// the threshold.
  ThresholdComparator(const Instance* instance, ThresholdModel model,
                      uint64_t seed);

  /// Independent worker of the same class: same instance and options, a
  /// fresh Rng seeded from `seed`, and (under kPersistentArbitrary) an
  /// empty sticky-answer table — per-pair opinions are per-fork, like two
  /// different workers of the same class holding independent arbitrary
  /// views.
  std::unique_ptr<Comparator> Fork(uint64_t seed) const override;

  VoteBatchComparator* AsVoteBatch() override { return this; }
  int64_t IdLimit() const override { return instance_->size(); }
  int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                        std::span<ElementId> out) override;

  /// Under kFreshCoin, a kernel that needs no written-out pair list
  /// (DESIGN.md §14): every row of the group is compared in 64-column
  /// words, the pairs whose class does not draw are decided by those
  /// words, and only the pairs whose class draws consume raw draws, in
  /// row-major order. Otherwise, and for a group with a player outside the
  /// instance or a NaN value, the default path.
  int64_t GenerateTournament(std::span<const ElementId> players,
                             std::span<const uint64_t> skip,
                             LossMatrix* losses) override;

  /// Checkpoints the counter, the RNG stream position, and the sticky
  /// below-threshold answer table, so a restored run replays the exact
  /// same coin flips and per-pair opinions (core/checkpoint.h).
  Status SaveState(CheckpointWriter* writer) const override;
  Status LoadState(CheckpointReader* reader) override;

 private:
  ElementId DoCompare(ElementId a, ElementId b) override;

  const Instance* instance_;
  Options options_;
  Rng rng_;
  // Clamped integer thresholds of the two per-class probabilities,
  // computed once at construction for the bulk draw path.
  uint64_t epsilon_threshold_ = 0;
  uint64_t coin_threshold_ = 0;
  // Persistent below-threshold answers for kPersistentArbitrary.
  PairTable sticky_answers_;
  VoteBatchScratch scratch_;
  TournamentScratch tournament_;
};

/// Probabilistic-model worker whose error probability decays exponentially
/// with the relative difference of the values:
///   P(error) = min(max_error, base_error * exp(-decay * rel_diff)).
/// Answers are independent across queries, so majority voting converges to
/// the correct answer for any pair with rel_diff > 0 — the DOTS regime.
/// Does not own the instance.
class RelativeErrorComparator : public Comparator, public VoteBatchComparator {
 public:
  struct Options {
    /// Error probability at relative difference 0 (capped by max_error).
    double base_error = 0.5;
    /// Exponential decay rate in the relative difference.
    double decay = 4.5;
    /// Upper cap applied after the decay formula; 0.5 means a pair with
    /// rel_diff == 0 is a pure coin flip.
    double max_error = 0.5;
  };

  RelativeErrorComparator(const Instance* instance, const Options& options,
                          uint64_t seed);

  /// Independent worker of the same class with a fresh Rng from `seed`.
  std::unique_ptr<Comparator> Fork(uint64_t seed) const override;

  VoteBatchComparator* AsVoteBatch() override { return this; }
  int64_t IdLimit() const override { return instance_->size(); }
  int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                        std::span<ElementId> out) override;

  /// Checkpoints the counter and the RNG stream position.
  Status SaveState(CheckpointWriter* writer) const override;
  Status LoadState(CheckpointReader* reader) override;

 private:
  ElementId DoCompare(ElementId a, ElementId b) override;

  const Instance* instance_;
  Options options_;
  Rng rng_;
  VoteBatchScratch scratch_;
};

/// Generalized threshold worker (Appendix A: "even if the difference ...
/// is above delta_n a worker may err, albeit with a smaller probability
/// ... the error probability depends on the distance"): below the
/// threshold the answer is an (optionally biased) coin, and above it the
/// error probability decays exponentially with the distance beyond the
/// threshold:
///   P(error | d > delta) = epsilon_at_threshold * exp(-decay * (d - delta)).
/// With decay == 0 this reduces to the plain threshold model
/// T(delta, epsilon_at_threshold). Does not own the instance.
class DistanceDecayComparator : public Comparator, public VoteBatchComparator {
 public:
  struct Options {
    /// Indistinguishability threshold on the absolute value distance.
    double delta = 0.0;
    /// P(correct) for pairs at or below the threshold (0.5 = fair coin).
    double below_threshold_correct_prob = 0.5;
    /// Error probability just above the threshold; must be in [0, 0.5).
    double epsilon_at_threshold = 0.3;
    /// Exponential decay rate of the error in (d - delta); >= 0.
    double decay = 5.0;
  };

  DistanceDecayComparator(const Instance* instance, const Options& options,
                          uint64_t seed);

  /// Independent worker of the same class with a fresh Rng from `seed`.
  std::unique_ptr<Comparator> Fork(uint64_t seed) const override;

  VoteBatchComparator* AsVoteBatch() override { return this; }
  int64_t IdLimit() const override { return instance_->size(); }
  int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                        std::span<ElementId> out) override;

  /// Checkpoints the counter and the RNG stream position.
  Status SaveState(CheckpointWriter* writer) const override;
  Status LoadState(CheckpointReader* reader) override;

 private:
  ElementId DoCompare(ElementId a, ElementId b) override;

  const Instance* instance_;
  Options options_;
  Rng rng_;
  VoteBatchScratch scratch_;
};

/// Crowd model with persistent per-pair bias below a relative-difference
/// threshold (the CARS regime of Figure 2(b)).
///
/// For a pair with relative difference at or below `relative_threshold`,
/// the crowd has a persistent preferred winner, drawn once per pair and
/// correct with probability `preferred_correct_prob(rel_diff)` (a step
/// function over buckets). Each individual query returns the preferred
/// winner with probability 1 - individual_noise. Majority voting therefore
/// converges to the *preferred* winner, and accuracy plateaus at the
/// probability the preference is correct — no number of naive workers can
/// exceed it. Above the threshold behaviour is probabilistic with error
/// `above_threshold_error`, so majority voting converges to correct.
/// Does not own the instance.
class PersistentBiasComparator : public Comparator, public VoteBatchComparator {
 public:
  struct Bucket {
    /// Pairs with rel_diff <= max_relative_difference fall in this bucket
    /// (buckets are checked in order).
    double max_relative_difference;
    /// Probability the crowd's persistent preferred winner is the correct
    /// element for pairs in this bucket.
    double preferred_correct_prob;
  };

  struct Options {
    /// Buckets in increasing max_relative_difference order; pairs above the
    /// last bucket's bound are "easy" (no persistent bias).
    std::vector<Bucket> buckets;
    /// Per-query probability an individual worker deviates from the
    /// crowd-preferred answer on a hard pair.
    double individual_noise = 0.28;
    /// Per-query error probability on easy pairs (decays is not modeled;
    /// a constant suffices for the regime above the plateau).
    double above_threshold_error = 0.15;
  };

  PersistentBiasComparator(const Instance* instance, const Options& options,
                           uint64_t seed);

  /// Independent crowd of the same composition with a fresh Rng from
  /// `seed`. The per-pair preferred-winner table starts empty in the fork:
  /// persistence holds within a fork's lifetime (one parallel group), not
  /// across forks — use the serial path when cross-round persistence of
  /// the crowd bias is the behaviour under study.
  std::unique_ptr<Comparator> Fork(uint64_t seed) const override;

  VoteBatchComparator* AsVoteBatch() override { return this; }
  int64_t IdLimit() const override { return instance_->size(); }
  int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                        std::span<ElementId> out) override;

  /// Checkpoints the counter, the RNG stream position, and the persistent
  /// per-pair preferred-winner table — the crowd keeps its opinions across
  /// a crash.
  Status SaveState(CheckpointWriter* writer) const override;
  Status LoadState(CheckpointReader* reader) override;

 private:
  ElementId DoCompare(ElementId a, ElementId b) override;

  const Instance* instance_;
  Options options_;
  Rng rng_;
  // Clamped integer thresholds of the per-class probabilities (one per
  // bucket, plus noise and easy-pair error), computed once at
  // construction for the bulk draw path.
  std::vector<uint64_t> bucket_thresholds_;
  uint64_t noise_threshold_ = 0;
  uint64_t error_threshold_ = 0;
  // Per-pair persistent preferred winner for pairs inside a bucket.
  PairTable preferred_;
  VoteBatchScratch scratch_;
};

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_WORKER_MODEL_H_
