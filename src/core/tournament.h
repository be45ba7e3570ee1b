// All-play-all (round-robin) tournaments.
//
// Both phases of the paper's algorithm and all baselines are built out of
// all-play-all tournaments among small groups of elements (Lemmas 1-2).
// Each one is a round engine player unit (core/round_engine.h), answered
// into a LossMatrix and tallied by TallyTournament.

#ifndef CROWDMAX_CORE_TOURNAMENT_H_
#define CROWDMAX_CORE_TOURNAMENT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/comparator.h"
#include "core/instance.h"

namespace crowdmax {

/// Outcome of an all-play-all tournament among k elements.
struct TournamentResult {
  /// wins[i] = number of comparisons won by the i-th input element; sums
  /// to k*(k-1)/2 less `unresolved`.
  std::vector<int64_t> wins;
  /// Comparisons issued to the comparator (k*(k-1)/2; fewer are *paid* if
  /// the comparator memoizes).
  int64_t comparisons = 0;
  /// Executor backends only (0 and OK elsewhere): pairs the executor could
  /// not answer after its own recovery, which award no win to either side,
  /// and the transient fault that left them.
  int64_t unresolved = 0;
  Status fault = Status::OK();
};

class LossMatrix;

/// The tally of one answered tournament of k players: wins[i] counts the
/// players that lost to player i, `unresolved` the pairs with no evidence
/// (neither bit set, no win to either side), and `comparisons` is
/// k(k-1)/2. k == 0 and k == 1 give an empty and an all-zero tally.
TournamentResult TallyTournament(const LossMatrix& losses);

/// Plays every unordered pair of `elements` once through `comparator` and
/// tallies wins. Elements must be distinct ids; k == 0 and k == 1 are valid
/// (no comparisons). A thin adapter over RunTournamentOnEngine with a
/// serial, non-memoizing engine; an id outside the comparator's instance
/// is an InvalidArgument naming it.
Result<TournamentResult> AllPlayAll(const std::vector<ElementId>& elements,
                                    Comparator* comparator);

class RoundEngine;

/// Options for RunTournamentOnEngine beyond the single-round drive.
struct TournamentEngineOptions {
  /// When positive, split the all-play-all into engine rounds of at most
  /// this many pairs instead of one round carrying every pair. The chunks
  /// are pair-disjoint and order-independent, so a pipelined engine can
  /// keep several chunk round trips in flight (CanPipelineNextRound) and
  /// overlap their latencies; the tally is identical to the single-round
  /// drive. 0 plays the tournament as one round of one player unit.
  int64_t chunk_pairs = 0;
};

/// Plays one all-play-all tournament over `elements` as a single engine
/// round on any backend (or chunked rounds, see TournamentEngineOptions),
/// each in an "all_play_all" batch trace span.
Result<TournamentResult> RunTournamentOnEngine(
    const std::vector<ElementId>& elements, RoundEngine* engine,
    const TournamentEngineOptions& options = {});

/// Index (into the tournament's input vector) of an element with the most
/// wins; the earliest such index on ties ("ties broken arbitrarily" in the
/// paper — this choice is deterministic for reproducibility). Requires a
/// non-empty tally.
size_t IndexOfMostWins(const TournamentResult& result);

/// Index of an element with the fewest wins (earliest on ties). Used by the
/// randomized phase-2 algorithm, which eliminates minimal elements.
size_t IndexOfFewestWins(const TournamentResult& result);

/// Orders `elements` by decreasing wins in `result` (stable: earlier input
/// position first on win ties) — the "ranking of the last round" used by
/// the paper's Tables 1-2. Requires result.wins.size() == elements.size().
std::vector<ElementId> OrderByWins(const std::vector<ElementId>& elements,
                                   const TournamentResult& result);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_TOURNAMENT_H_
