// Algorithm 1: the expert-aware two-phase max-finding algorithm.
//
// Phase 1 filters the input down to O(u_n) candidates using cheap naive
// workers (Algorithm 2); phase 2 runs a max-finder over the candidates
// using expensive expert workers. With 2-MaxFind in phase 2 the returned
// element e satisfies d(M, e) <= 2*delta_e using at most 4*n*u_n naive and
// 2*(2*u_n)^{3/2} expert comparisons (Theorem 1); with the randomized
// phase 2 the guarantee is 3*delta_e w.h.p. with Theta(u_n) expert
// comparisons (Lemmas 4-5).

#ifndef CROWDMAX_CORE_EXPERT_MAX_H_
#define CROWDMAX_CORE_EXPERT_MAX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/comparator.h"
#include "core/cost.h"
#include "core/execution.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/maxfind.h"

namespace crowdmax {

/// Which solver runs over the candidate set in phase 2.
enum class Phase2Algorithm {
  /// Algorithm 3 (default; the choice used in the paper's Section 5
  /// simulations): O(u_n^{3/2}) expert comparisons, 2*delta_e guarantee.
  kTwoMaxFind,
  /// Algorithm 5: Theta(u_n) expert comparisons with a very large
  /// constant, 3*delta_e guarantee w.h.p. (the variant used in the paper's
  /// asymptotic analysis).
  kRandomized,
  /// Exhaustive tournament: Theta(u_n^2) expert comparisons, 2*delta_e.
  kAllPlayAll,
};

/// Configuration of the two-phase algorithm.
struct ExpertMaxOptions {
  /// Phase-1 options; `filter.u_n` is the only required parameter of the
  /// whole algorithm (estimate it with EstimateUn when unknown).
  FilterOptions filter;
  Phase2Algorithm phase2 = Phase2Algorithm::kTwoMaxFind;
  TwoMaxFindOptions two_maxfind;
  RandomizedMaxFindOptions randomized;

  /// Cross-phase pair-evidence sharing (core/round_engine.h). When set, it
  /// overrides the sub-options' cache fields: phase 1 memoizes its naive
  /// evidence into `shared_cache[naive_cache_class]` and phase 2 into
  /// `shared_cache[expert_cache_class]`. Dedup is within-class only —
  /// naive answers never substitute for expert answers — so phase 2 reuses
  /// phase-1 evidence exactly when both classes share an id, i.e. both
  /// phases buy from the very same crowd (the single-class regime of the
  /// paper's u_n = u_e degenerate case). The main gain is across calls: a
  /// later run on the same (cache, class) answers every already-resolved
  /// pair for free. kRandomized runs unmemoized by design and never reads
  /// or writes the cache. Not owned; must outlive the call.
  SharedPairCache* shared_cache = nullptr;
  int64_t naive_cache_class = 0;
  int64_t expert_cache_class = 1;
};

/// Execution record of the two-phase algorithm.
struct ExpertMaxResult {
  /// The element returned as (approximately) maximal.
  ElementId best = -1;
  /// Phase-1 survivors handed to the experts.
  std::vector<ElementId> candidates;
  /// Paid comparison counts per worker class.
  ComparisonStats paid;
  /// Issued comparison counts per worker class (>= paid when memoizing).
  ComparisonStats issued;
  int64_t filter_rounds = 0;
  int64_t phase2_rounds = 0;
  /// Propagated phase-1 degradation flags (see FilterResult).
  bool filter_hit_empty_round = false;
  bool filter_stopped_by_budget = false;

  /// Executor logical steps per worker class (0 on a comparator).
  int64_t naive_steps = 0;
  int64_t expert_steps = 0;
  /// True when either phase stopped early on an exhausted fault budget
  /// (executor backends only): `candidates` still holds the phase-1
  /// survivors collected so far, `best` is -1 if phase 2 could not finish,
  /// and `fault_status` carries the first typed error.
  bool partial = false;
  Status fault_status = Status::OK();
  /// Per-phase fault/recovery reports, copied from executor stacks that
  /// keep one (Execution::fault_report); nullopt otherwise.
  std::optional<FaultReport> naive_faults;
  std::optional<FaultReport> expert_faults;

  /// Monetary cost of this execution under `model`.
  double CostUnder(const CostModel& model) const {
    return model.Cost(paid.naive, paid.expert);
  }
};

/// Runs Algorithm 1 on `items`: Algorithm 2 with `naive`, then the selected
/// phase-2 solver with `expert`. Returns InvalidArgument for bad options,
/// duplicate ids, or an empty input. When a fault budget is exhausted on an
/// executor stack, the run returns a partial result (survivors so far plus
/// the fault status) instead of failing: phase 2 runs even on a partial
/// phase 1, whose survivor set still holds the maximum.
Result<ExpertMaxResult> FindMaxWithExperts(const std::vector<ElementId>& items,
                                           Execution naive, Execution expert,
                                           const ExpertMaxOptions& options);

/// Phase 2 over `candidates` on the `expert` class: the `algorithm` solver,
/// memoizing into `two_maxfind.shared_cache`'s `cache_class` table when it
/// is set (kRandomized runs unmemoized and leaves it alone). `chunk_pairs`
/// splits a kAllPlayAll tournament into rounds of at most that many pairs.
/// Opens the "expert" trace phase span; a comparator, which has no executor
/// to record cells, records the phase's spend as one cell. Shared by
/// FindMaxWithExperts and FindMaxMultilevel's final level.
Result<MaxFindResult> RunPhase2(const std::vector<ElementId>& candidates,
                                Execution expert, Phase2Algorithm algorithm,
                                const TwoMaxFindOptions& two_maxfind,
                                const RandomizedMaxFindOptions& randomized,
                                int64_t chunk_pairs = 0);

/// Budget-constrained execution (cf. Mo et al.'s fixed-budget task
/// assignment in the paper's related work): reserve the worst-case expert
/// cost for phase 2, spend what remains on naive filtering.
struct BudgetedMaxOptions {
  ExpertMaxOptions base;
  CostModel prices;
  /// Total monetary budget. Must at least cover the reserved expert phase
  /// plus one filtering round.
  double budget = 0.0;
};

/// Outcome of a budgeted run.
struct BudgetedMaxResult {
  ExpertMaxResult result;
  /// Naive comparisons the budget afforded phase 1.
  int64_t naive_comparison_cap = 0;
  /// True if phase 1 hit its cap and returned early (candidates may exceed
  /// 2*u_n - 1; the maximum still survives — stopping early only keeps
  /// more elements).
  bool filter_stopped_by_budget = false;
  /// Actual spend; can exceed `budget` only when an early-stopped phase 1
  /// left more candidates than the expert reserve anticipated (best-effort
  /// semantics; check within_budget).
  double actual_cost = 0.0;
  bool within_budget = false;
};

/// Runs Algorithm 1 under a monetary budget: phase 2's worst-case cost
/// (2-MaxFind on 2*u_n - 1 candidates at expert prices) is reserved up
/// front and FilterOptions::max_comparisons is set to spend the rest on
/// naive work. Returns InvalidArgument when the budget cannot cover the
/// expert reserve plus the first filtering round.
Result<BudgetedMaxResult> BudgetedFindMaxWithExperts(
    const std::vector<ElementId>& items, Execution naive, Execution expert,
    const BudgetedMaxOptions& options);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_EXPERT_MAX_H_
