// Multi-class extension of the two-phase algorithm (the paper's Section 3.3
// "natural extension models multiple classes of workers with different
// expertise levels", left as future work there and implemented here).
//
// Worker classes are ordered by increasing expertise (decreasing threshold)
// and increasing price. Each class k except the last runs the Algorithm-2
// filter with its own u_k, shrinking the candidate set before handing it to
// the next, more expensive, class; the most expert class runs a phase-2
// max-finder. With two classes this degenerates exactly to Algorithm 1.

#ifndef CROWDMAX_CORE_MULTILEVEL_H_
#define CROWDMAX_CORE_MULTILEVEL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/comparator.h"
#include "core/execution.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/instance.h"

namespace crowdmax {

/// One worker class in the cascade.
struct WorkerClassSpec {
  /// What answers this class's comparisons (comparator, executor stack or
  /// pipelined executor; not owned).
  Execution execution;
  /// u_k: number of elements this class cannot distinguish from the
  /// maximum (including the maximum). Must be >= 1. Ignored for the last
  /// class, which runs phase 2 rather than a filter.
  int64_t u = 1;
  /// Price per comparison, for cost reporting.
  double cost_per_comparison = 1.0;
};

/// Options for the cascade.
struct MultilevelOptions {
  /// Applied to every filtering level (u_n is taken from the class spec).
  FilterOptions filter_template;
  /// Solver run by the final (most expert) class.
  Phase2Algorithm final_phase = Phase2Algorithm::kTwoMaxFind;
  TwoMaxFindOptions two_maxfind;
  RandomizedMaxFindOptions randomized;

  /// Cross-call pair-evidence sharing (core/round_engine.h). When set, it
  /// overrides the template/sub-option cache fields: level k's engine
  /// memoizes into `shared_cache[k]` (the class index doubles as the cache
  /// class id, so classes of different expertise never trade evidence), and
  /// a repeated cascade over overlapping items answers every pair a
  /// previous run's same level resolved for free. kRandomized finals run
  /// unmemoized and never share. Not owned; must outlive the call.
  SharedPairCache* shared_cache = nullptr;

  /// For a kAllPlayAll final, splits the tournament into engine rounds of
  /// at most this many pairs (TournamentEngineOptions::chunk_pairs, 0 =
  /// single round), so a pipelined final class overlaps the chunks' round
  /// trips. A kTwoMaxFind final speculates per two_maxfind.speculate.
  int64_t final_chunk_pairs = 0;
};

/// Execution record of the cascade.
struct MultilevelResult {
  ElementId best = -1;
  /// Paid comparisons per class, aligned with the input specs.
  std::vector<int64_t> paid_per_class;
  /// Candidate-set size after each filtering level (one entry per
  /// non-final class).
  std::vector<int64_t> candidates_per_level;
  /// Total monetary cost given each class's cost_per_comparison.
  double total_cost = 0.0;

  /// Executor logical steps per class, aligned with the input specs (0 for
  /// comparator classes).
  std::vector<int64_t> steps_per_class;
  /// True when any level stopped early on an exhausted fault budget
  /// (executor classes only); the cascade still hands the survivor
  /// superset down, so `best` is filled whenever the final phase produced
  /// a provisional leader. `fault_status` carries the first typed error.
  bool partial = false;
  Status fault_status = Status::OK();
};

/// Runs the cascade over `items`. `classes` must be non-empty and ordered
/// from least to most expert; with one class this is a plain single-class
/// phase-2 run. Every non-final class runs the filter, the final class the
/// configured phase-2 solver (RunPhase2).
Result<MultilevelResult> FindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<WorkerClassSpec>& classes,
    const MultilevelOptions& options);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_MULTILEVEL_H_
