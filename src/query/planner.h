// Cost-based planning of crowd max queries.
//
// The paper positions its algorithm as a building block "inside systems
// like CrowdDB to answer a wider range of queries using the crowd"
// (Section 1.1) and spends Section 5.1 mapping out when each strategy is
// cheapest: naive-only 2-MaxFind is cheap but unreliable, expert-only
// 2-MaxFind wins when the expert/naive price ratio is small (< ~10), and
// the two-phase Algorithm 1 wins when experts are expensive. The planner
// encodes exactly that decision as closed-form cost predictions so a query
// engine can pick a strategy before spending a cent, and RunMaxPlan runs the
// chosen strategy on whatever Executions the caller holds.

#ifndef CROWDMAX_QUERY_PLANNER_H_
#define CROWDMAX_QUERY_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cost.h"
#include "core/execution.h"
#include "core/expert_max.h"
#include "core/instance.h"

namespace crowdmax {

/// Execution strategies for a crowd MAX query.
enum class MaxStrategy {
  /// Algorithm 1: naive filter + expert 2-MaxFind. Accurate (2*delta_e).
  kTwoPhase,
  /// 2-MaxFind with experts only. Accurate (2*delta_e).
  kExpertOnly,
  /// 2-MaxFind with naive workers only. Cheap but only 2*delta_n accurate
  /// — considered only when the caller opts into approximate answers.
  kNaiveOnly,
};

/// Returns a short stable name for `strategy` ("two-phase", ...).
std::string MaxStrategyName(MaxStrategy strategy);

/// Inputs to the planner.
struct PlannerInput {
  /// Dataset size.
  int64_t n = 0;
  /// (Estimated) number of elements naive-indistinguishable from the
  /// maximum; see EstimateUn.
  int64_t u_n = 1;
  /// Per-comparison prices.
  CostModel prices;
  /// Whether a 2*delta_n-approximate answer is acceptable; enables the
  /// naive-only strategy.
  bool allow_naive_accuracy = false;
  /// Plan against worst-case comparison counts (theory bounds) instead of
  /// average-case predictions.
  bool worst_case = false;
};

/// A planned strategy with its predicted cost.
struct MaxQueryPlan {
  MaxStrategy strategy = MaxStrategy::kTwoPhase;
  /// Predicted total monetary cost of the chosen strategy.
  double predicted_cost = 0.0;
  /// Predicted costs of all strategies, for explanation.
  double two_phase_cost = 0.0;
  double expert_only_cost = 0.0;
  /// Infinity when naive accuracy is not allowed.
  double naive_only_cost = 0.0;
  /// Human-readable justification of the choice.
  std::string explanation;
};

/// Predicted naive comparisons of Algorithm 1's phase 1. The average-case
/// constant (~2.6*n*u_n) is calibrated from the measurements in
/// EXPERIMENTS.md; the worst case is Lemma 3's 4*n*u_n.
double PredictFilterComparisons(int64_t n, int64_t u_n, bool worst_case);

/// Predicted expert comparisons of Algorithm 1's phase 2 over the
/// <= 2*u_n - 1 candidates (average ~linear in u_n; worst case
/// 2*(2*u_n-1)^{3/2}).
double PredictPhase2Comparisons(int64_t u_n, bool worst_case);

/// Predicted comparisons of single-class 2-MaxFind on n elements
/// (average ~1.7*n; worst case 2*n^{3/2}).
double PredictTwoMaxFindComparisons(int64_t n, bool worst_case);

/// Chooses the cheapest strategy meeting the accuracy requirement.
/// Returns InvalidArgument for non-positive n / u_n or invalid prices.
Result<MaxQueryPlan> PlanMaxQuery(const PlannerInput& input);

/// Runs `strategy` over `items`: Algorithm 1 (FindMaxWithExperts with
/// `options`) for kTwoPhase; otherwise 2-MaxFind with
/// `options.two_maxfind` on the one class the strategy bills, inside that
/// class's "naive" or "expert" phase span, memoizing into
/// `options.shared_cache` under that class's cache id when it is set. A
/// single-class run fills only its own class's counters.
Result<ExpertMaxResult> RunMaxPlan(const std::vector<ElementId>& items,
                                   MaxStrategy strategy,
                                   const ExpertMaxOptions& options,
                                   Execution naive, Execution expert);

}  // namespace crowdmax

#endif  // CROWDMAX_QUERY_PLANNER_H_
