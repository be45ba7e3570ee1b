#include "core/topk.h"

#include <memory>
#include <utility>

#include "core/round_engine.h"
#include "core/tournament.h"
#include "core/trace.h"

namespace crowdmax {

Result<TopKResult> FindTopKWithExperts(const std::vector<ElementId>& items,
                                       Execution naive, Execution expert,
                                       const TopKOptions& options) {
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  if (options.k < 1 || options.k > static_cast<int64_t>(items.size())) {
    return Status::InvalidArgument("k must be in [1, |items|]");
  }
  if (options.filter.u_n < 1) {
    return Status::InvalidArgument("u_n must be >= 1");
  }
  TraceSpanScope run_span(TraceSpanKind::kRun, "topk");

  // Phase 1 with the inflated blind spot u' = u_n + k - 1 so every true
  // top-k element survives (it loses at most u_n + k - 2 < u' comparisons
  // in any all-play-all).
  FilterOptions filter = options.filter;
  filter.u_n = options.filter.u_n + options.k - 1;
  if (options.shared_cache != nullptr) {
    filter.shared_cache = options.shared_cache;
    filter.cache_class = options.naive_cache_class;
  }
  Result<FilterResult> filtered = FilterCandidates(items, filter, naive);
  if (!filtered.ok()) return filtered.status();

  TopKResult result;
  result.candidates = std::move(filtered->candidates);
  result.paid.naive = filtered->paid_comparisons;
  result.filter_rounds = filtered->rounds;
  result.naive_steps = filtered->logical_steps;
  result.partial = filtered->partial;
  result.fault_status = filtered->fault_status;
  if (const FaultReport* report = naive.fault_report()) {
    result.naive_faults = *report;
  }
  if (static_cast<int64_t>(result.candidates.size()) < options.k) {
    return Status::Internal(
        "phase 1 returned fewer candidates than k; the comparator violated "
        "the threshold-model contract");
  }

  // Phase 2: one expert all-play-all over the candidates; take the k
  // biggest winners in win order. A partial filter only enlarges the
  // candidate set, so the tournament still ranks the true top-k. Within
  // this call memoization is a no-op (each pair is played exactly once),
  // but against a shared cache the tournament re-asks pairs an earlier
  // expert-class engine — typically a FindMaxWithExperts run in the same
  // query session — already resolved, and those come back free.
  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  Result<std::unique_ptr<RoundEngine>> engine =
      expert.Engine(/*memoize=*/options.shared_cache != nullptr,
                    options.shared_cache, options.expert_cache_class);
  if (!engine.ok()) return engine.status();
  Result<TournamentResult> tournament = RunTournamentOnEngine(
      result.candidates, engine->get(),
      TournamentEngineOptions{options.expert_chunk_pairs});
  if (!tournament.ok()) return tournament.status();

  // Mispredicted speculative spend stays on the engine's wasted counter,
  // never in the per-class paid totals (DESIGN.md §15).
  result.paid.expert = (*engine)->paid() - (*engine)->speculation_wasted();
  result.expert_steps = (*engine)->logical_steps();
  if (tournament->unresolved > 0 || !tournament->fault.ok()) {
    result.partial = true;
    if (result.fault_status.ok()) {
      result.fault_status =
          tournament->fault.ok()
              ? Status::Unavailable(
                    "expert tournament left " +
                    std::to_string(tournament->unresolved) +
                    " comparisons unresolved; the order is provisional")
              : tournament->fault;
    }
  }
  if (const FaultReport* report = expert.fault_report()) {
    result.expert_faults = *report;
  }
  // A comparator has no executor to record cells: the tournament is one
  // cell, as FindMaxWithExperts' phase 2.
  if (AlgoTrace* trace = CurrentTrace();
      trace != nullptr && expert.comparator() != nullptr) {
    trace->RecordAnsweredCell(result.paid.expert, tournament->comparisons);
  }

  std::vector<ElementId> ranked = OrderByWins(result.candidates, *tournament);
  ranked.resize(static_cast<size_t>(options.k));
  result.top = std::move(ranked);
  return result;
}

}  // namespace crowdmax
