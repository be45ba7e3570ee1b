#include "baselines/venetis.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/execution.h"
#include "core/round_engine.h"

namespace crowdmax {

namespace {

// Number of single-elimination rounds for n elements (byes advance free).
int64_t LadderRounds(int64_t n) {
  int64_t rounds = 0;
  while (n > 1) {
    n = (n + 1) / 2;
    ++rounds;
  }
  return rounds;
}

// Matches played in round r (0-based) of a ladder starting from n.
int64_t MatchesInRound(int64_t n, int64_t round) {
  for (int64_t r = 0; r < round; ++r) n = (n + 1) / 2;
  return n / 2;
}

// One ladder round per engine round; one match per unit, whose pair is
// repeated votes_for_round times (units are the forking granularity, so
// every match votes through its own comparator stream). The engine must
// not memoize: repeated votes are the point.
class VenetisRoundSource : public RoundSource {
 public:
  VenetisRoundSource(const std::vector<ElementId>& items,
                     const VenetisOptions& options)
      : options_(options), current_(items) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (current_.size() <= 1) return false;
    votes_ = votes_for_round(result_.rounds);
    num_matches_ = current_.size() / 2;
    round->units.reserve(num_matches_);
    for (size_t m = 0; m < num_matches_; ++m) {
      RoundUnit unit;
      unit.pairs.assign(static_cast<size_t>(votes_),
                        {current_[2 * m], current_[2 * m + 1]});
      round->units.push_back(std::move(unit));
    }
    return true;
  }

  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    ++result_.rounds;
    result_.issued_comparisons += outcome.issued;
    std::vector<ElementId> winners;
    winners.reserve(num_matches_ + 1);
    for (size_t m = 0; m < num_matches_; ++m) {
      const ElementId a = current_[2 * m];
      int64_t wins_a = 0;
      for (const ElementId winner : outcome.winners[m]) {
        if (winner == a) ++wins_a;
      }
      // An unresolved vote counts toward neither side; the strict majority
      // rule then favors b, exactly like a lost vote.
      winners.push_back(2 * wins_a > votes_ ? a : current_[2 * m + 1]);
    }
    if (current_.size() % 2 == 1) winners.push_back(current_.back());  // Bye.
    current_ = std::move(winners);
    return Status::OK();
  }

  MaxFindResult Finish(int64_t paid_delta) {
    result_.best = current_[0];
    result_.paid_comparisons = paid_delta;
    return std::move(result_);
  }

 private:
  int64_t votes_for_round(int64_t round) const {
    if (options_.votes_schedule.empty()) return options_.votes_per_match;
    const size_t index = std::min(static_cast<size_t>(round),
                                  options_.votes_schedule.size() - 1);
    return options_.votes_schedule[index];
  }

  const VenetisOptions& options_;
  std::vector<ElementId> current_;
  int64_t votes_ = 0;
  size_t num_matches_ = 0;
  MaxFindResult result_;
};

}  // namespace

Result<MaxFindResult> VenetisLadderMax(const std::vector<ElementId>& items,
                                       Comparator* comparator,
                                       const VenetisOptions& options) {
  CROWDMAX_CHECK(comparator != nullptr);
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  if (options.votes_schedule.empty()) {
    if (options.votes_per_match < 1 || options.votes_per_match % 2 == 0) {
      return Status::InvalidArgument("votes_per_match must be odd and >= 1");
    }
  } else {
    for (int64_t votes : options.votes_schedule) {
      if (votes < 1 || votes % 2 == 0) {
        return Status::InvalidArgument(
            "votes_schedule entries must be odd and >= 1");
      }
    }
  }
  if (Status ids = CheckDistinctIds(items); !ids.ok()) return ids;
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  if (options.threads >= 1 && comparator->Fork(0) == nullptr) {
    return Status::InvalidArgument(
        "comparator does not support Fork(); the parallel ladder requires "
        "a forkable comparator");
  }

  Result<std::unique_ptr<RoundEngine>> engine =
      Execution(comparator).Engine(/*memoize=*/false, /*cache=*/nullptr, 0,
                                   options.threads, options.parallel_seed);
  if (!engine.ok()) return engine.status();

  VenetisRoundSource source(items, options);
  const int64_t paid_before = (*engine)->paid();
  Result<DriveResult> drive = (*engine)->Drive(&source);
  if (!drive.ok()) return drive.status();
  return source.Finish((*engine)->paid() - paid_before);
}

double MajorityErrorProbability(int64_t k, double p) {
  CROWDMAX_CHECK(k >= 1 && k % 2 == 1);
  CROWDMAX_CHECK(p >= 0.0 && p <= 1.0);
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  // Sum the binomial tail j = (k+1)/2 .. k iteratively; exact for the
  // vote counts in play (k <= a few hundred).
  double error = 0.0;
  // C(k, j) * p^j * q^(k-j), starting at j = k and walking down.
  const double q = 1.0 - p;
  double term = std::pow(p, static_cast<double>(k));  // j = k.
  error += term;
  for (int64_t j = k - 1; j >= (k + 1) / 2; --j) {
    // term(j) = term(j+1) * C(k,j)/C(k,j+1) * q/p = term(j+1)*(j+1)/(k-j)*q/p.
    term *= static_cast<double>(j + 1) / static_cast<double>(k - j) * q / p;
    error += term;
  }
  return std::min(1.0, error);
}

Result<VenetisTuning> TuneVenetisSchedule(int64_t n, int64_t budget,
                                          double per_vote_error) {
  if (n < 2) return Status::InvalidArgument("n must be >= 2");
  if (per_vote_error < 0.0 || per_vote_error >= 0.5) {
    return Status::InvalidArgument("per_vote_error must be in [0, 0.5)");
  }
  const int64_t rounds = LadderRounds(n);
  if (budget < n - 1) {
    return Status::InvalidArgument(
        "budget must cover at least one vote per match (n - 1)");
  }

  VenetisTuning tuning;
  tuning.schedule.assign(static_cast<size_t>(rounds), 1);
  tuning.total_votes = n - 1;  // One vote per match across all rounds.

  // Greedy: add 2 votes to the round with the highest survival gain per
  // additional vote, until no upgrade fits the budget. The maximum plays
  // exactly one match per round, so survival = prod_r (1 - err(k_r)).
  // Upgrading round r costs 2 * MatchesInRound(r) votes.
  while (true) {
    double best_gain_per_vote = 0.0;
    int64_t best_round = -1;
    for (int64_t r = 0; r < rounds; ++r) {
      const int64_t cost = 2 * MatchesInRound(n, r);
      if (tuning.total_votes + cost > budget) continue;
      const int64_t k = tuning.schedule[static_cast<size_t>(r)];
      const double before = 1.0 - MajorityErrorProbability(k, per_vote_error);
      const double after =
          1.0 - MajorityErrorProbability(k + 2, per_vote_error);
      if (before <= 0.0) continue;
      // Multiplicative survival gain per vote spent.
      const double gain =
          (std::log(after) - std::log(before)) / static_cast<double>(cost);
      if (gain > best_gain_per_vote) {
        best_gain_per_vote = gain;
        best_round = r;
      }
    }
    if (best_round < 0) break;
    tuning.schedule[static_cast<size_t>(best_round)] += 2;
    tuning.total_votes += 2 * MatchesInRound(n, best_round);
  }

  tuning.predicted_max_survival = 1.0;
  for (int64_t r = 0; r < rounds; ++r) {
    tuning.predicted_max_survival *=
        1.0 - MajorityErrorProbability(tuning.schedule[static_cast<size_t>(r)],
                                       per_vote_error);
  }
  return tuning;
}

}  // namespace crowdmax
