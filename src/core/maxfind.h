// Phase-2 max-finding under imprecise comparisons (Section 4.1.2).
//
// Three interchangeable solvers for Problem 2 — selecting a near-maximum
// element out of a candidate set S using a single worker class:
//
//  * AllPlayAllMax   — Theta(|S|^2) comparisons, d(M, e) <= 2*delta.
//  * TwoMaxFind      — Algorithm 3 (2-MaxFind of Ajtai et al., ICALP'09):
//                      O(|S|^{3/2}) comparisons, d(M, e) <= 2*delta,
//                      deterministic given consistent answers.
//  * RandomizedMaxFind — Algorithm 5 (Ajtai et al., Section 3.2):
//                      Theta(|S|) comparisons but with a very large
//                      constant (80*(c+2) group size), d(M, e) <= 3*delta
//                      w.h.p. Asymptotically optimal, practically dominated
//                      by 2-MaxFind at the paper's instance sizes.

#ifndef CROWDMAX_CORE_MAXFIND_H_
#define CROWDMAX_CORE_MAXFIND_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/comparator.h"
#include "core/execution.h"
#include "core/instance.h"

namespace crowdmax {

class RoundEngine;
class SharedPairCache;

/// Outcome of a phase-2 solver.
struct MaxFindResult {
  /// The element reported as (approximately) maximal.
  ElementId best = -1;
  /// Comparisons actually paid for (cache misses when memoizing).
  int64_t paid_comparisons = 0;
  /// Comparisons issued, including memoization hits.
  int64_t issued_comparisons = 0;
  /// Round count (while-loop iterations; 0 for AllPlayAllMax).
  int64_t rounds = 0;

  /// Executor logical steps the run consumed (0 on a comparator).
  int64_t logical_steps = 0;
  /// Executor backends only (false on a comparator): faults the executor's
  /// own recovery could not repair left the run without evidence. An
  /// elimination loop that stalls stops with `best == -1`; a final
  /// tournament on incomplete evidence reports its provisional leader in
  /// `best`. Either way `survivors` holds the candidates still alive and
  /// `fault_status` the typed error.
  bool partial = false;
  Status fault_status = Status::OK();
  std::vector<ElementId> survivors;
};

/// Plays a single all-play-all tournament over `items` and returns the
/// element with the most wins. Requires a non-empty set of distinct ids.
Result<MaxFindResult> AllPlayAllMax(const std::vector<ElementId>& items,
                                    Comparator* comparator);

/// Options for TwoMaxFind.
struct TwoMaxFindOptions {
  /// Remember each pair's answer and never re-ask (the paper assumes this:
  /// "we memorize results and we do not repeat comparisons"). Memoization
  /// also guarantees termination against inconsistent (randomized)
  /// comparators; with it off the algorithm aborts with Internal status
  /// after a progress-failure budget is exhausted. The same on every
  /// Execution.
  bool memoize = true;

  /// Cross-phase pair-evidence sharing (core/round_engine.h): when set,
  /// memoize into this cache's `cache_class` map instead of a private one,
  /// so pairs already resolved by an earlier engine of the same worker
  /// class are answered for free. Dedup is within-class only (1 = expert
  /// by convention). Not owned; must outlive the call.
  SharedPairCache* shared_cache = nullptr;
  int64_t cache_class = 1;

  /// Predict each sample tournament's pivot and speculatively issue the
  /// elimination scan before the sample's answers arrive (DESIGN.md §15).
  /// The predicted pivot is the lowest-indexed sample member, so callers
  /// that order candidates by prior strength (e.g. phase-1 win counts)
  /// get a high hit rate. Only a pipelined Execution consults it; results,
  /// traces and paid counters are bit-identical to the sync drive either
  /// way — mispredictions surface only as `speculation_wasted` spend on
  /// the engine.
  bool speculate = false;
};

/// Algorithm 3 (2-MaxFind). Repeatedly: tournament among ceil(sqrt(s))
/// arbitrary candidates, pick the winner x, compare x against every
/// candidate and drop all that lose to x; once at most ceil(sqrt(s))
/// candidates remain, a final tournament decides. Elimination comparisons
/// pass the pivot as the *first* argument (AdversarialPolicy::kFirstLoses
/// exercises the worst case). On an executor this takes two logical steps
/// per round (sample tournament, then the pivot's scan) and one final
/// step: O(sqrt(s)) steps. Opens no trace phase span: the caller opens the
/// span of the worker class it bills.
Result<MaxFindResult> TwoMaxFind(const std::vector<ElementId>& items,
                                 Execution execution,
                                 const TwoMaxFindOptions& options = {});

/// The deterministic upper bound on 2-MaxFind comparisons used by the
/// paper's worst-case plots: 2 * s^{3/2} (from Ajtai et al., Lemma 1).
int64_t TwoMaxFindComparisonUpperBound(int64_t s);

/// Options for RandomizedMaxFind.
struct RandomizedMaxFindOptions {
  /// Seed for sampling and partitioning.
  uint64_t seed = 1;
  /// The constant c of Algorithm 5; group size is 80 * (c + 2) and the
  /// success probability is 1 - |S|^{-c}.
  int64_t c = 1;
  /// Exponent of the stopping threshold and witness-sample size (|S|^0.3
  /// in the paper).
  double sample_exponent = 0.3;
  /// If positive, overrides the 80*(c+2) group size — used by ablation
  /// benches to show the cost/accuracy effect of the constant.
  int64_t group_size_override = 0;

  /// Emit each elimination group as its own engine round instead of one
  /// round carrying every group as a unit. The groups of one logical round
  /// are pairwise disjoint, so a pipelined engine can keep several group
  /// round trips in flight (CanPipelineNextRound); elimination decisions
  /// still wait for the whole logical round (the witness sample and
  /// shuffle are drawn once, at the first group's emission). Results are
  /// identical either way; only the round-trip overlap differs.
  bool pipeline_groups = false;
};

/// Algorithm 5: the randomized linear-comparison max-finder. Maintains a
/// witness set W sampled along the way; each round partitions the survivors
/// into groups of 80*(c+2), plays all-play-all in each group and eliminates
/// each group's minimal element; finishes with a tournament over W plus the
/// remaining survivors. Unmemoized on every Execution (the algorithm's own
/// model).
Result<MaxFindResult> RandomizedMaxFind(
    const std::vector<ElementId>& items, Execution execution,
    const RandomizedMaxFindOptions& options = {});

/// Algorithm 3 (2-MaxFind) as a RoundSource on `engine` (any backend). The
/// engine owns memoization and dispatch, so of `options` only `speculate`
/// is read. `TwoMaxFind` is a thin wrapper over this; the checkpoint,
/// chaos and speculation tests drive engines they built themselves.
Result<MaxFindResult> RunTwoMaxFindOnEngine(
    const std::vector<ElementId>& items, RoundEngine* engine,
    const TwoMaxFindOptions& options = {});

/// Algorithm 5 as a RoundSource on `engine` (any backend). A group with an
/// unresolved pair eliminates nobody (no eviction without evidence); a
/// stalled elimination loop proceeds straight to the final tournament over
/// the witness set plus all remaining survivors.
Result<MaxFindResult> RunRandomizedMaxFindOnEngine(
    const std::vector<ElementId>& items, RoundEngine* engine,
    const RandomizedMaxFindOptions& options = {});

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_MAXFIND_H_
