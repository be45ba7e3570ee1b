// Approximate top-k selection with experts — an extension beyond the
// paper's max-finding (the paper's related work discusses top-k under
// distance-based error models, Davidson et al. ICDT'13; here we lift the
// two-phase expert-aware approach to k > 1).
//
// The key observation generalizes Lemma 1: in an all-play-all tournament
// under T(delta_n, 0), the true j-th ranked element (j <= k) loses only to
// elements truly above it (at most j - 1 <= k - 1) and to elements
// naive-indistinguishable from *it* (at most U - 1, where U is the largest
// blind-spot size |{e : d(e, m_j) <= delta_n}| over the top-k elements —
// note this can be up to twice the paper's u_n, which only measures the
// one-sided neighbourhood of the maximum). Running Algorithm 2 with the
// inflated parameter u' = U + k - 1 therefore keeps the entire true top-k
// in the candidate set (at most 2*u' - 1 elements, at most 4*n*u' naive
// comparisons). Experts then play one all-play-all tournament over the
// candidates and the k biggest winners, in win order, are returned.
//
// Guarantee (proved by the counting argument in tests/topk_test.cc): with
// expert residual error 0, the value at every returned position j is at
// least the true j-th value minus 2*delta_e.

#ifndef CROWDMAX_CORE_TOPK_H_
#define CROWDMAX_CORE_TOPK_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/comparator.h"
#include "core/cost.h"
#include "core/execution.h"
#include "core/filter_phase.h"
#include "core/instance.h"

namespace crowdmax {

/// Configuration of the two-phase top-k algorithm.
struct TopKOptions {
  /// Number of top elements to return. Must be >= 1 and <= |items|.
  int64_t k = 1;
  /// Phase-1 options. `filter.u_n` must bound the blind-spot size around
  /// *every* top-k element (U above), not just the maximum; the algorithm
  /// internally inflates it to U + k - 1. Overestimating costs, never
  /// breaks correctness.
  FilterOptions filter;

  /// Cross-phase pair-evidence sharing (core/round_engine.h). When set, it
  /// overrides `filter`'s cache fields: phase 1 memoizes naive evidence
  /// into `shared_cache[naive_cache_class]`, and the expert tournament runs
  /// memoized against `shared_cache[expert_cache_class]` — so a query
  /// session that already ran FindMaxWithExperts on the same cache answers
  /// every expert pair that run resolved for free (the top-k tournament
  /// replays much of phase 2's evidence). Dedup is within-class only. Not
  /// owned; must outlive the call.
  SharedPairCache* shared_cache = nullptr;
  int64_t naive_cache_class = 0;
  int64_t expert_cache_class = 1;

  /// When positive, the expert tournament is split into engine rounds of
  /// at most this many pairs (TournamentEngineOptions::chunk_pairs) so a
  /// pipelined Execution overlaps the chunk round trips (an executor pays
  /// one logical step per chunk). 0 keeps the single-round tournament;
  /// tallies are identical either way.
  int64_t expert_chunk_pairs = 0;
};

/// Outcome of the top-k algorithm.
struct TopKResult {
  /// k elements in decreasing estimated-rank order (top[0] ~ maximum).
  std::vector<ElementId> top;
  /// Phase-1 survivors (contains the entire true top-k under the model
  /// assumptions).
  std::vector<ElementId> candidates;
  /// Paid comparisons per worker class.
  ComparisonStats paid;
  int64_t filter_rounds = 0;

  /// Executor logical steps per worker class (0 on a comparator).
  int64_t naive_steps = 0;
  int64_t expert_steps = 0;
  /// True when a phase ran on incomplete evidence (executor backends
  /// only): the filter stopped early on an exhausted fault budget
  /// (candidates hold the survivors so far — a superset, the true top-k
  /// still inside) or the expert tournament left pairs unresolved (the
  /// returned order is the provisional win count). `fault_status` carries
  /// the first typed error.
  bool partial = false;
  Status fault_status = Status::OK();
  /// Per-phase fault/recovery reports, copied from executor stacks that
  /// keep one (Execution::fault_report); nullopt otherwise.
  std::optional<FaultReport> naive_faults;
  std::optional<FaultReport> expert_faults;

  double CostUnder(const CostModel& model) const {
    return model.Cost(paid.naive, paid.expert);
  }
};

/// Runs the two-phase top-k algorithm: Algorithm 2 with u' = u_n + k - 1
/// using `naive` (O(log n) steps on an executor), then one expert
/// all-play-all over the candidates, ordered by wins. Returns
/// InvalidArgument for bad options or duplicate ids.
Result<TopKResult> FindTopKWithExperts(const std::vector<ElementId>& items,
                                       Execution naive, Execution expert,
                                       const TopKOptions& options);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_TOPK_H_
