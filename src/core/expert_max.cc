#include "core/expert_max.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/round_engine.h"
#include "core/tournament.h"
#include "core/trace.h"

namespace crowdmax {

Result<ExpertMaxResult> FindMaxWithExperts(const std::vector<ElementId>& items,
                                           Execution naive, Execution expert,
                                           const ExpertMaxOptions& options) {
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  TraceSpanScope run_span(TraceSpanKind::kRun, "expert_max");

  FilterOptions filter_options = options.filter;
  TwoMaxFindOptions two_maxfind_options = options.two_maxfind;
  if (options.shared_cache != nullptr) {
    filter_options.shared_cache = options.shared_cache;
    filter_options.cache_class = options.naive_cache_class;
    two_maxfind_options.shared_cache = options.shared_cache;
    two_maxfind_options.cache_class = options.expert_cache_class;
  }

  // Phase 1: filter with naive workers (FilterCandidates opens the
  // "filter" phase span and records its per-round cells).
  Result<FilterResult> filtered =
      FilterCandidates(items, filter_options, naive);
  if (!filtered.ok()) return filtered.status();

  ExpertMaxResult result;
  result.candidates = std::move(filtered->candidates);
  result.paid.naive = filtered->paid_comparisons;
  result.issued.naive = filtered->issued_comparisons;
  result.filter_rounds = filtered->rounds;
  result.filter_hit_empty_round = filtered->hit_empty_round;
  result.filter_stopped_by_budget = filtered->stopped_by_budget;
  result.naive_steps = filtered->logical_steps;
  result.partial = filtered->partial;
  result.fault_status = filtered->fault_status;
  if (const FaultReport* report = naive.fault_report()) {
    result.naive_faults = *report;
  }
  if (result.candidates.empty()) {
    return Status::Internal("phase 1 returned an empty candidate set");
  }

  // Phase 2 runs even on a partial phase 1: the conservative filter never
  // evicts without a counted loss, so the maximum is still among the
  // (possibly oversized) survivor set and the experts can finish the job.
  Result<MaxFindResult> phase2 =
      RunPhase2(result.candidates, expert, options.phase2,
                two_maxfind_options, options.randomized);
  if (!phase2.ok()) return phase2.status();

  result.best = phase2->best;
  result.paid.expert = phase2->paid_comparisons;
  result.issued.expert = phase2->issued_comparisons;
  result.phase2_rounds = phase2->rounds;
  result.expert_steps = phase2->logical_steps;
  if (phase2->partial) {
    result.partial = true;
    if (result.fault_status.ok()) result.fault_status = phase2->fault_status;
  }
  if (const FaultReport* report = expert.fault_report()) {
    result.expert_faults = *report;
  }
  return result;
}

Result<MaxFindResult> RunPhase2(const std::vector<ElementId>& candidates,
                                Execution expert, Phase2Algorithm algorithm,
                                const TwoMaxFindOptions& two_maxfind,
                                const RandomizedMaxFindOptions& randomized,
                                int64_t chunk_pairs) {
  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  // 2-MaxFind memoizes per its options. An all-play-all asks each pair
  // once, so it memoizes only to share the cache. Algorithm 5 runs
  // unmemoized, so it leaves the cache alone.
  SharedPairCache* cache = algorithm == Phase2Algorithm::kRandomized
                               ? nullptr
                               : two_maxfind.shared_cache;
  const bool memoize = algorithm == Phase2Algorithm::kTwoMaxFind
                           ? two_maxfind.memoize
                           : cache != nullptr;
  Result<std::unique_ptr<RoundEngine>> engine =
      expert.Engine(memoize, cache, two_maxfind.cache_class);
  if (!engine.ok()) return engine.status();

  Result<MaxFindResult> phase2 = Status::Internal("unreachable");
  switch (algorithm) {
    case Phase2Algorithm::kTwoMaxFind:
      phase2 = RunTwoMaxFindOnEngine(candidates, engine->get(), two_maxfind);
      break;
    case Phase2Algorithm::kRandomized:
      phase2 =
          RunRandomizedMaxFindOnEngine(candidates, engine->get(), randomized);
      break;
    case Phase2Algorithm::kAllPlayAll: {
      if (candidates.empty()) {
        return Status::InvalidArgument("candidate set must be non-empty");
      }
      if (Status ids = CheckDistinctIds(candidates); !ids.ok()) return ids;
      Result<TournamentResult> run = RunTournamentOnEngine(
          candidates, engine->get(), TournamentEngineOptions{chunk_pairs});
      if (!run.ok()) return run.status();
      MaxFindResult tallied;
      tallied.best = candidates[IndexOfMostWins(*run)];
      tallied.issued_comparisons = run->comparisons;
      // Mispredicted speculative spend stays on the engine's wasted
      // counter, never in the per-class paid totals (DESIGN.md §15).
      tallied.paid_comparisons =
          (*engine)->paid() - (*engine)->speculation_wasted();
      tallied.logical_steps = (*engine)->logical_steps();
      if (run->unresolved > 0 || !run->fault.ok()) {
        tallied.partial = true;
        tallied.fault_status =
            run->fault.ok()
                ? Status::Unavailable(
                      "final tournament left " +
                      std::to_string(run->unresolved) +
                      " comparisons unresolved; best is provisional")
                : run->fault;
      }
      phase2 = std::move(tallied);
      break;
    }
  }
  if (!phase2.ok()) return phase2.status();
  // The comparator backends have no executor underneath to attribute
  // their comparisons, so the whole phase is one trace cell (round -1):
  // every paid comparison came back answered, and the issued-minus-paid
  // remainder was served by the memoization cache.
  if (AlgoTrace* trace = CurrentTrace();
      trace != nullptr && expert.comparator() != nullptr) {
    trace->RecordAnsweredCell(phase2->paid_comparisons,
                              phase2->issued_comparisons);
  }
  return phase2;
}

Result<BudgetedMaxResult> BudgetedFindMaxWithExperts(
    const std::vector<ElementId>& items, Execution naive, Execution expert,
    const BudgetedMaxOptions& options) {
  if (!options.prices.Valid()) {
    return Status::InvalidArgument("invalid cost model");
  }
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  const int64_t u_n = options.base.filter.u_n;
  if (u_n < 1) return Status::InvalidArgument("u_n must be >= 1");

  // Reserve the worst-case expert phase, then cap naive work with the
  // remainder. The first filtering round needs about n*(g-1)/2
  // comparisons; demand at least that much naive headroom so the run can
  // make progress.
  const double expert_reserve =
      static_cast<double>(TwoMaxFindComparisonUpperBound(2 * u_n - 1)) *
      options.prices.expert_cost;
  const double naive_funds = options.budget - expert_reserve;
  const int64_t n = static_cast<int64_t>(items.size());
  const int64_t g = options.base.filter.group_size_multiplier * u_n;
  const int64_t first_round_cost =
      n >= 2 * u_n ? (n / g) * (g * (g - 1) / 2) +
                         ((n % g > u_n) ? (n % g) * (n % g - 1) / 2 : 0)
                   : 0;
  const int64_t naive_cap =
      options.prices.naive_cost > 0.0
          ? static_cast<int64_t>(std::floor(naive_funds /
                                            options.prices.naive_cost))
          : (naive_funds >= 0.0 ? FilterComparisonUpperBound(n, u_n)
                                : int64_t{-1});
  if (naive_cap < first_round_cost || naive_funds < 0.0) {
    return Status::InvalidArgument(
        "budget cannot cover the expert reserve plus the first filtering "
        "round");
  }

  ExpertMaxOptions run_options = options.base;
  run_options.filter.max_comparisons = naive_cap;
  Result<ExpertMaxResult> run =
      FindMaxWithExperts(items, naive, expert, run_options);
  if (!run.ok()) return run.status();

  BudgetedMaxResult out;
  out.result = std::move(run).value();
  out.naive_comparison_cap = naive_cap;
  out.filter_stopped_by_budget = out.result.filter_stopped_by_budget;
  out.actual_cost = out.result.CostUnder(options.prices);
  out.within_budget = out.actual_cost <= options.budget + 1e-9;
  return out;
}

}  // namespace crowdmax
