// Phase 1 of the expert-aware max-finding algorithm (Algorithm 2).
//
// Using only naive workers, repeatedly partition the surviving elements
// into groups of g = 4*u_n, play an all-play-all tournament inside each
// group, and keep only elements that win at least |G| - u_n comparisons,
// until fewer than 2*u_n elements survive. Guarantees (Lemma 3): the true
// maximum survives, at most 2*u_n - 1 candidates are returned, and at most
// 4*n*u_n comparisons are issued. This matches the Omega(n*u_n) lower bound
// of Corollary 1 up to constants.
//
// The two Appendix-A optimizations are implemented and individually
// toggleable for ablation studies:
//  1. memoize      — never pay twice for the same unordered pair;
//  2. global_loss_counter — track, across rounds, how many distinct
//     opponents each element has lost to, and evict every element whose
//     count exceeds u_n (it would lose more than u_n comparisons in a full
//     all-play-all, so by Lemma 1 it cannot be the maximum).

#ifndef CROWDMAX_CORE_FILTER_PHASE_H_
#define CROWDMAX_CORE_FILTER_PHASE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/comparator.h"
#include "core/execution.h"
#include "core/instance.h"

namespace crowdmax {

class RoundEngine;
class SharedPairCache;

/// Tuning knobs for Algorithm 2.
struct FilterOptions {
  /// The paper's u_n(n): assumed number of elements naive-indistinguishable
  /// from the maximum (including the maximum itself). Overestimating only
  /// raises cost, never hurts correctness; underestimating may drop the
  /// maximum. Must be >= 1.
  int64_t u_n = 1;

  /// Group size is group_size_multiplier * u_n; the paper uses 4. Must be
  /// >= 2 (groups must be larger than u_n for the win threshold to bite).
  int64_t group_size_multiplier = 4;

  /// Appendix A optimization 1: cache comparison outcomes per unordered
  /// pair so re-grouped pairs are answered for free. Only pairs of two
  /// survivors can be re-grouped, so the engine's private memo keeps just
  /// those (RoundSource::NamesRecurringElements): each group is one player
  /// unit, and the memo is the groups' own loss matrices with a seat for
  /// each survivor, so a later group reads only the pairs whose players
  /// met in an earlier group (DESIGN.md §14). A shared_cache keeps every
  /// pair. The same on every Execution.
  bool memoize = false;

  /// Appendix A optimization 2: evict elements that have lost to more than
  /// u_n distinct opponents across all rounds.
  bool global_loss_counter = false;

  /// Hard cap on paid comparisons (0 = unlimited). Checked at round
  /// boundaries: when a completed round would leave fewer comparisons than
  /// the next round needs, filtering stops early and returns the current
  /// survivors with FilterResult::stopped_by_budget set. Correctness of
  /// "M survives" is preserved (stopping early only keeps more elements);
  /// the |S| <= 2*u_n - 1 size bound is not.
  int64_t max_comparisons = 0;

  /// Parallel tournament execution (core/round_engine.h), read only on a
  /// comparator Execution. 0 (the default) keeps the serial path,
  /// answering every comparison through the caller's comparator in
  /// program order. Any value >= 1 routes each round's disjoint group
  /// tournaments through a work-stealing pool of that many threads,
  /// answering each group through an independent Comparator::Fork child
  /// seeded in group-index order from `parallel_seed`. Results are
  /// observationally deterministic: winner, survivor sets and
  /// paid-comparison counts are bit-identical for every threads >= 1 (but
  /// differ from the serial path's RNG draw order). Requires a forkable
  /// comparator; returns InvalidArgument otherwise.
  int64_t threads = 0;

  /// Seed of the per-group RNG fork chain used when threads >= 1
  /// (comparator Execution only).
  uint64_t parallel_seed = 0x9E3779B97F4A7C15ULL;

  /// Emit each round's disjoint group tournaments as separate engine
  /// rounds (one group per round) instead of one combined round. The
  /// groups of a filter round share no element, so their pair sets are
  /// disjoint and each group's content is known the moment the round is
  /// partitioned — exactly the RoundSource::CanPipelineNextRound legality
  /// conditions — which lets the pipelined engine (RoundEngine::
  /// CreatePipelined) overlap the groups' crowd round trips. Survivor
  /// selection still happens once per logical round, after every group's
  /// outcome arrived, so winners, survivor sets and paid counts are
  /// identical to the combined emission; only step accounting changes
  /// granularity (one logical step per group rather than per round).
  bool pipeline_groups = false;

  /// Cross-phase pair-evidence sharing (core/round_engine.h): when set,
  /// the filter's engine memoizes into this cache's `cache_class` map
  /// instead of a private one, so every pair the filter resolves is free
  /// for any later engine driven on the same (cache, class) — and pairs an
  /// earlier run of the same class resolved are free here. Implies
  /// `memoize`. Not owned; must outlive the call.
  SharedPairCache* shared_cache = nullptr;
  /// Worker-class id of this filter's evidence in `shared_cache`. Dedup is
  /// within-class only: naive evidence must never substitute for expert
  /// evidence, so use distinct ids per worker class (0 = naive by
  /// convention) and share an id only between phases buying from the very
  /// same crowd.
  int64_t cache_class = 0;
};

/// Outcome of the filtering phase.
struct FilterResult {
  /// Surviving candidate set; contains the maximum under the model
  /// assumptions and has size <= 2*u_n - 1 (unless the input was already
  /// smaller than 2*u_n, in which case it is the input).
  std::vector<ElementId> candidates;

  /// Comparisons actually paid for (cache misses when memoizing).
  int64_t paid_comparisons = 0;

  /// Comparisons issued by the algorithm, including memoization hits.
  int64_t issued_comparisons = 0;

  /// Number of while-loop iterations executed.
  int64_t rounds = 0;

  /// |L_i| at the start of each round (diagnostics; empty if the loop never
  /// ran).
  std::vector<int64_t> round_sizes;

  /// Elements evicted by the cross-round loss counter (0 unless the
  /// optimization is enabled).
  int64_t evicted_by_loss_counter = 0;

  /// True if some round produced an empty survivor set — possible only
  /// when u_n is underestimated (Section 5.2 notes the algorithm "could
  /// return an empty set" in that regime). The filter then stops and
  /// returns the pre-round survivors instead, so `candidates` is never
  /// empty for non-empty input, though it may exceed 2*u_n - 1.
  bool hit_empty_round = false;

  /// True if filtering stopped early because the next round would exceed
  /// FilterOptions::max_comparisons.
  bool stopped_by_budget = false;

  /// Executor logical steps the run consumed (0 on a comparator).
  int64_t logical_steps = 0;
  /// Executor backends only (false on a comparator, where missing evidence
  /// is impossible): a round made no progress because faults withheld
  /// evidence, so the round loop stopped early. `candidates` then holds the
  /// conservative survivor set (no eviction without evidence — the maximum
  /// still survives) and `fault_status` the typed error that stopped it.
  bool partial = false;
  Status fault_status = Status::OK();
};

/// Runs Algorithm 2 on `items` with the `naive` worker class. `items` must
/// be distinct element ids; returns InvalidArgument for bad options or
/// duplicate ids.
Result<FilterResult> FilterCandidates(const std::vector<ElementId>& items,
                                      const FilterOptions& options,
                                      Execution naive);

/// Runs Algorithm 2 as a RoundSource on `engine` (any backend). The engine
/// owns memoization, FilterOptions::max_comparisons enforcement at round
/// boundaries, dispatch, and trace-cell recording; this function only emits
/// rounds and consumes outcomes. `FilterCandidates` is a thin wrapper over
/// it; the checkpoint and chaos tests drive engines they built themselves.
Result<FilterResult> RunFilterOnEngine(const std::vector<ElementId>& items,
                                       const FilterOptions& options,
                                       RoundEngine* engine);

/// The theoretical worst-case number of naive comparisons of Algorithm 2
/// for input size n (Lemma 3): 4*n*u_n. Benches report this alongside
/// measured counts, as the paper does for its worst-case curves.
int64_t FilterComparisonUpperBound(int64_t n, int64_t u_n);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_FILTER_PHASE_H_
