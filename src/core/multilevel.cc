#include "core/multilevel.h"

#include <memory>
#include <utility>

#include "core/maxfind.h"
#include "core/trace.h"

namespace crowdmax {

Result<MultilevelResult> FindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<WorkerClassSpec>& classes,
    const MultilevelOptions& options) {
  if (classes.empty()) {
    return Status::InvalidArgument("at least one worker class is required");
  }
  for (const WorkerClassSpec& spec : classes) {
    if (spec.execution.empty()) {
      return Status::InvalidArgument("worker class has no execution");
    }
    if (spec.cost_per_comparison < 0.0) {
      return Status::InvalidArgument("cost_per_comparison must be >= 0");
    }
  }
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  TraceSpanScope run_span(TraceSpanKind::kRun, "multilevel");

  MultilevelResult result;
  result.paid_per_class.assign(classes.size(), 0);
  result.steps_per_class.assign(classes.size(), 0);

  std::vector<ElementId> current = items;

  // Filtering levels: every class except the last. A partial level hands
  // its (oversized but max-preserving) survivor set to the next class.
  for (size_t level = 0; level + 1 < classes.size(); ++level) {
    const WorkerClassSpec& spec = classes[level];
    if (spec.u < 1) {
      return Status::InvalidArgument("worker class u must be >= 1");
    }
    FilterOptions filter = options.filter_template;
    filter.u_n = spec.u;
    if (options.shared_cache != nullptr) {
      filter.shared_cache = options.shared_cache;
      filter.cache_class = static_cast<int64_t>(level);
    }
    Result<FilterResult> filtered =
        FilterCandidates(current, filter, spec.execution);
    if (!filtered.ok()) return filtered.status();
    result.paid_per_class[level] = filtered->paid_comparisons;
    result.steps_per_class[level] = filtered->logical_steps;
    result.candidates_per_level.push_back(
        static_cast<int64_t>(filtered->candidates.size()));
    if (filtered->partial) {
      result.partial = true;
      if (result.fault_status.ok()) {
        result.fault_status = filtered->fault_status;
      }
    }
    current = std::move(filtered->candidates);
    if (current.empty()) {
      return Status::Internal("filter level returned an empty candidate set");
    }
  }

  // Final level: phase-2 max-finding with the most expert class.
  const size_t last = classes.size() - 1;
  TwoMaxFindOptions two_maxfind = options.two_maxfind;
  if (options.shared_cache != nullptr) {
    two_maxfind.shared_cache = options.shared_cache;
    two_maxfind.cache_class = static_cast<int64_t>(last);
  }
  Result<MaxFindResult> final_result =
      RunPhase2(current, classes[last].execution, options.final_phase,
                two_maxfind, options.randomized, options.final_chunk_pairs);
  if (!final_result.ok()) return final_result.status();

  result.best = final_result->best;
  result.paid_per_class[last] = final_result->paid_comparisons;
  result.steps_per_class[last] = final_result->logical_steps;
  if (final_result->partial) {
    result.partial = true;
    if (result.fault_status.ok()) {
      result.fault_status = final_result->fault_status;
    }
  }
  for (size_t i = 0; i < classes.size(); ++i) {
    result.total_cost += static_cast<double>(result.paid_per_class[i]) *
                         classes[i].cost_per_comparison;
  }
  return result;
}

}  // namespace crowdmax
