#include "baselines/adaptive.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/round_engine.h"

namespace crowdmax {

namespace {

double EloExpectation(double rating_a, double rating_b) {
  return 1.0 / (1.0 + std::pow(10.0, (rating_b - rating_a) / 400.0));
}

// The fully-sequential extreme of the round structure: every comparison is
// its own round, because each pairing decision depends on the ratings the
// previous answer produced. The engine degenerates to batch-size-1 serial
// dispatch with no memoization (re-asking a pair is intentional here).
class AdaptiveRoundSource : public RoundSource {
 public:
  AdaptiveRoundSource(const std::vector<ElementId>& items,
                      const AdaptiveMaxOptions& options)
      : items_(items), options_(options), rng_(options.seed) {
    const size_t n = items_.size();
    // Random initial order so ids do not bias early pairings.
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) order_[i] = i;
    rng_.Shuffle(&order_);
    rating_.assign(n, 0.0);
    plays_.assign(n, 0);
  }

  Result<bool> NextRound(EngineRound* round) override {
    if (spent_ >= options_.budget) return false;
    const size_t n = items_.size();
    if (warm_index_ + 1 < n) {
      // Warm-up: one pass of adjacent pairings in the shuffled order gives
      // every element at least one game.
      a_ = order_[warm_index_];
      b_ = order_[warm_index_ + 1];
      in_warmup_ = true;
    } else {
      // Main loop: leader vs the best optimistic challenger.
      const double t = static_cast<double>(spent_ + 2);
      size_t leader = 0;
      for (size_t i = 1; i < n; ++i) {
        if (rating_[i] > rating_[leader] ||
            (rating_[i] == rating_[leader] && plays_[i] < plays_[leader])) {
          leader = i;
        }
      }
      size_t challenger = leader == 0 ? 1 : 0;
      double best_score = -1e300;
      for (size_t i = 0; i < n; ++i) {
        if (i == leader) continue;
        const double bonus =
            options_.exploration *
            std::sqrt(std::log(t) / static_cast<double>(plays_[i] + 1));
        const double score = rating_[i] + bonus;
        if (score > best_score) {
          best_score = score;
          challenger = i;
        }
      }
      a_ = leader;
      b_ = challenger;
      in_warmup_ = false;
    }
    RoundUnit unit;
    unit.pairs.push_back({items_[a_], items_[b_]});
    round->units.push_back(std::move(unit));
    return true;
  }

  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    ++spent_;
    if (in_warmup_) warm_index_ += 2;
    const ElementId winner = outcome.winners[0][0];
    if (winner == kUnresolvedWinner) return Status::OK();  // No evidence.
    const size_t w = winner == items_[a_] ? a_ : b_;
    const size_t l = w == a_ ? b_ : a_;
    const double expected = EloExpectation(rating_[w], rating_[l]);
    rating_[w] += options_.k_factor * (1.0 - expected);
    rating_[l] -= options_.k_factor * (1.0 - expected);
    ++plays_[w];
    ++plays_[l];
    return Status::OK();
  }

  MaxFindResult Finish(int64_t paid_delta) {
    size_t best = 0;
    for (size_t i = 1; i < items_.size(); ++i) {
      if (rating_[i] > rating_[best]) best = i;
    }
    MaxFindResult result;
    result.best = items_[best];
    result.rounds = spent_;
    result.issued_comparisons = spent_;
    result.paid_comparisons = paid_delta;
    return result;
  }

 private:
  const std::vector<ElementId>& items_;
  const AdaptiveMaxOptions& options_;
  Rng rng_;
  std::vector<size_t> order_;
  std::vector<double> rating_;
  std::vector<int64_t> plays_;
  int64_t spent_ = 0;
  size_t warm_index_ = 0;
  size_t a_ = 0;
  size_t b_ = 0;
  bool in_warmup_ = false;
};

}  // namespace

Result<MaxFindResult> AdaptiveEloMax(const std::vector<ElementId>& items,
                                     Comparator* comparator,
                                     const AdaptiveMaxOptions& options) {
  CROWDMAX_CHECK(comparator != nullptr);
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  if (Status ids = CheckDistinctIds(items); !ids.ok()) return ids;
  if (options.budget < static_cast<int64_t>(items.size()) - 1) {
    return Status::InvalidArgument("budget must be >= |items| - 1");
  }
  if (options.k_factor <= 0.0) {
    return Status::InvalidArgument("k_factor must be positive");
  }
  if (options.exploration < 0.0) {
    return Status::InvalidArgument("exploration must be >= 0");
  }

  if (items.size() == 1) {
    MaxFindResult result;
    result.best = items[0];
    return result;
  }

  const std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(comparator, /*memoize=*/false);
  AdaptiveRoundSource source(items, options);
  const int64_t paid_before = engine->paid();
  Result<DriveResult> drive = engine->Drive(&source);
  if (!drive.ok()) return drive.status();
  return source.Finish(engine->paid() - paid_before);
}

}  // namespace crowdmax
