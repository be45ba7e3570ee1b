#include "query/engine.h"

#include <utility>

#include "core/expert_max.h"
#include "core/topk.h"

namespace crowdmax {

CrowdQueryEngine::CrowdQueryEngine(const CrowdQueryEngineOptions& options)
    : options_(options) {}

Result<CrowdQueryEngine> CrowdQueryEngine::Create(
    const CrowdQueryEngineOptions& options) {
  if (options.naive == nullptr || options.expert == nullptr) {
    return Status::InvalidArgument("both worker classes are required");
  }
  if (!options.prices.Valid()) {
    return Status::InvalidArgument("invalid cost model");
  }
  return CrowdQueryEngine(options);
}

Result<MaxQueryAnswer> CrowdQueryEngine::Max(
    const std::vector<ElementId>& items, int64_t u_n,
    bool allow_naive_accuracy) {
  if (items.empty()) {
    return Status::InvalidArgument("item set must be non-empty");
  }

  PlannerInput planner_input;
  planner_input.n = static_cast<int64_t>(items.size());
  planner_input.u_n = u_n;
  planner_input.prices = options_.prices;
  planner_input.allow_naive_accuracy = allow_naive_accuracy;
  Result<MaxQueryPlan> plan = PlanMaxQuery(planner_input);
  if (!plan.ok()) return plan.status();

  ExpertMaxOptions options;
  options.filter.u_n = u_n;
  Result<ExpertMaxResult> run = RunMaxPlan(items, plan->strategy, options,
                                           options_.naive, options_.expert);
  if (!run.ok()) return run.status();

  MaxQueryAnswer answer;
  answer.best = run->best;
  answer.plan = *plan;
  answer.paid = run->paid;
  answer.actual_cost =
      options_.prices.Cost(answer.paid.naive, answer.paid.expert);
  return answer;
}

Result<AboveQueryAnswer> CrowdQueryEngine::Above(
    const std::vector<ElementId>& items, ElementId anchor,
    const AboveQueryOptions& options) {
  Result<AboveResult> run =
      FindAbove(items, anchor, options, options_.naive, options_.expert);
  if (!run.ok()) return run.status();

  const double cost = options_.prices.Cost(run->paid.naive, run->paid.expert);
  return AboveQueryAnswer{std::move(run).value(), cost};
}

Result<TopKQueryAnswer> CrowdQueryEngine::TopK(
    const std::vector<ElementId>& items, int64_t u_n, int64_t k) {
  TopKOptions options;
  options.k = k;
  options.filter.u_n = u_n;
  Result<TopKResult> run =
      FindTopKWithExperts(items, options_.naive, options_.expert, options);
  if (!run.ok()) return run.status();

  TopKQueryAnswer answer;
  answer.top = std::move(run->top);
  answer.paid = run->paid;
  answer.actual_cost =
      options_.prices.Cost(answer.paid.naive, answer.paid.expert);
  return answer;
}

}  // namespace crowdmax
