// A small declarative layer over the max-finding algorithms — the
// "CrowdDB-style" entry point the paper's introduction motivates. The
// engine owns no workers: it is configured with one comparator per worker
// class, plans the cheapest adequate strategy (query/planner.h), runs it
// through the same entry points as the query service (RunMaxPlan,
// FindTopKWithExperts, FindAbove) and prices what it actually cost.

#ifndef CROWDMAX_QUERY_ENGINE_H_
#define CROWDMAX_QUERY_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/above.h"
#include "core/comparator.h"
#include "core/cost.h"
#include "core/instance.h"
#include "query/planner.h"

namespace crowdmax {

/// Engine configuration: the two worker classes and their prices.
struct CrowdQueryEngineOptions {
  /// Naive worker comparator (not owned; must outlive the engine).
  Comparator* naive = nullptr;
  /// Expert worker comparator (not owned; must outlive the engine).
  Comparator* expert = nullptr;
  /// Per-comparison prices for the two classes.
  CostModel prices;
};

/// Answer of a MAX query.
struct MaxQueryAnswer {
  ElementId best = -1;
  /// The plan that was executed.
  MaxQueryPlan plan;
  /// Comparisons actually paid, by class.
  ComparisonStats paid;
  /// Actual monetary cost of the execution.
  double actual_cost = 0.0;
};

/// Answer of a TOP-K query (always executed two-phase).
struct TopKQueryAnswer {
  std::vector<ElementId> top;
  ComparisonStats paid;
  double actual_cost = 0.0;
};

/// Answer of an ABOVE query (core/above.h), priced.
struct AboveQueryAnswer : AboveResult {
  double actual_cost = 0.0;
};

/// Plans and executes crowd queries over element sets.
class CrowdQueryEngine {
 public:
  /// Validates the options; both comparators are required.
  static Result<CrowdQueryEngine> Create(
      const CrowdQueryEngineOptions& options);

  /// SELECT MAX: picks the cheapest adequate strategy for the given u_n
  /// estimate and runs it. `allow_naive_accuracy` admits the cheap
  /// 2*delta_n-approximate naive-only plan.
  Result<MaxQueryAnswer> Max(const std::vector<ElementId>& items, int64_t u_n,
                             bool allow_naive_accuracy = false);

  /// SELECT TOP k: two-phase approximate top-k (core/topk.h). `u_n` must
  /// bound the blind spot around every top-k element.
  Result<TopKQueryAnswer> TopK(const std::vector<ElementId>& items,
                               int64_t u_n, int64_t k);

  /// SELECT WHERE value > anchor: FindAbove (core/above.h). `anchor` must
  /// not appear in `items`.
  Result<AboveQueryAnswer> Above(const std::vector<ElementId>& items,
                                 ElementId anchor,
                                 const AboveQueryOptions& options = {});

 private:
  explicit CrowdQueryEngine(const CrowdQueryEngineOptions& options);

  CrowdQueryEngineOptions options_;
};

}  // namespace crowdmax

#endif  // CROWDMAX_QUERY_ENGINE_H_
