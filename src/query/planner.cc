#include "query/planner.h"

#include <cmath>
#include <limits>

#include "common/table.h"
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

// Average-case constants calibrated against the measurements recorded in
// EXPERIMENTS.md (uniform instances, threshold workers): phase 1 pays
// ~2.6*n*u_n, single-class 2-MaxFind ~1.7*n, and phase 2 a small multiple
// of the candidate count.
constexpr double kAvgFilterFactor = 2.6;
constexpr double kAvgTwoMaxFindFactor = 1.7;
constexpr double kAvgPhase2Factor = 2.0;

}  // namespace

std::string MaxStrategyName(MaxStrategy strategy) {
  switch (strategy) {
    case MaxStrategy::kTwoPhase:
      return "two-phase";
    case MaxStrategy::kExpertOnly:
      return "expert-only";
    case MaxStrategy::kNaiveOnly:
      return "naive-only";
  }
  return "unknown";
}

double PredictFilterComparisons(int64_t n, int64_t u_n, bool worst_case) {
  if (worst_case) {
    return static_cast<double>(FilterComparisonUpperBound(n, u_n));
  }
  return kAvgFilterFactor * static_cast<double>(n) * static_cast<double>(u_n);
}

double PredictPhase2Comparisons(int64_t u_n, bool worst_case) {
  const int64_t candidates = 2 * u_n - 1;
  if (worst_case) {
    return static_cast<double>(TwoMaxFindComparisonUpperBound(candidates));
  }
  return kAvgPhase2Factor * static_cast<double>(candidates);
}

double PredictTwoMaxFindComparisons(int64_t n, bool worst_case) {
  if (worst_case) {
    return static_cast<double>(TwoMaxFindComparisonUpperBound(n));
  }
  return kAvgTwoMaxFindFactor * static_cast<double>(n);
}

Result<MaxQueryPlan> PlanMaxQuery(const PlannerInput& input) {
  if (input.n < 1) return Status::InvalidArgument("n must be >= 1");
  if (input.u_n < 1 || input.u_n > input.n) {
    return Status::InvalidArgument("u_n must be in [1, n]");
  }
  if (!input.prices.Valid()) {
    return Status::InvalidArgument("invalid cost model");
  }

  MaxQueryPlan plan;
  plan.two_phase_cost =
      PredictFilterComparisons(input.n, input.u_n, input.worst_case) *
          input.prices.naive_cost +
      PredictPhase2Comparisons(input.u_n, input.worst_case) *
          input.prices.expert_cost;
  plan.expert_only_cost =
      PredictTwoMaxFindComparisons(input.n, input.worst_case) *
      input.prices.expert_cost;
  plan.naive_only_cost =
      input.allow_naive_accuracy
          ? PredictTwoMaxFindComparisons(input.n, input.worst_case) *
                input.prices.naive_cost
          : std::numeric_limits<double>::infinity();

  plan.strategy = MaxStrategy::kTwoPhase;
  plan.predicted_cost = plan.two_phase_cost;
  if (plan.expert_only_cost < plan.predicted_cost) {
    plan.strategy = MaxStrategy::kExpertOnly;
    plan.predicted_cost = plan.expert_only_cost;
  }
  if (plan.naive_only_cost < plan.predicted_cost) {
    plan.strategy = MaxStrategy::kNaiveOnly;
    plan.predicted_cost = plan.naive_only_cost;
  }

  plan.explanation =
      "n=" + FormatInt(input.n) + ", u_n=" + FormatInt(input.u_n) +
      ", c_e/c_n=" + FormatDouble(input.prices.Ratio(), 1) +
      (input.worst_case ? ", worst-case" : ", average-case") +
      ": two-phase=" + FormatDouble(plan.two_phase_cost, 0) +
      ", expert-only=" + FormatDouble(plan.expert_only_cost, 0) +
      (input.allow_naive_accuracy
           ? ", naive-only=" + FormatDouble(plan.naive_only_cost, 0) +
                 " (approximate)"
           : "") +
      " -> " + MaxStrategyName(plan.strategy);
  return plan;
}

Result<ExpertMaxResult> RunMaxPlan(const std::vector<ElementId>& items,
                                   MaxStrategy strategy,
                                   const ExpertMaxOptions& options,
                                   Execution naive, Execution expert) {
  if (strategy == MaxStrategy::kTwoPhase) {
    return FindMaxWithExperts(items, naive, expert, options);
  }
  const bool on_expert = strategy == MaxStrategy::kExpertOnly;
  const Execution execution = on_expert ? expert : naive;
  TraceSpanScope phase_span(
      on_expert ? "expert" : "naive",
      on_expert ? TraceWorkerClass::kExpert : TraceWorkerClass::kNaive);
  TwoMaxFindOptions two_maxfind = options.two_maxfind;
  if (options.shared_cache != nullptr) {
    two_maxfind.shared_cache = options.shared_cache;
    two_maxfind.cache_class =
        on_expert ? options.expert_cache_class : options.naive_cache_class;
  }
  Result<MaxFindResult> run = TwoMaxFind(items, execution, two_maxfind);
  if (!run.ok()) return run.status();

  ExpertMaxResult result;
  result.best = run->best;
  (on_expert ? result.paid.expert : result.paid.naive) = run->paid_comparisons;
  (on_expert ? result.issued.expert : result.issued.naive) =
      run->issued_comparisons;
  (on_expert ? result.expert_steps : result.naive_steps) = run->logical_steps;
  result.partial = run->partial;
  result.fault_status = run->fault_status;
  if (const FaultReport* report = execution.fault_report()) {
    (on_expert ? result.expert_faults : result.naive_faults) = *report;
  }
  return result;
}

}  // namespace crowdmax
