#include "baselines/marcus.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/execution.h"
#include "core/round_engine.h"
#include "core/tournament.h"

namespace crowdmax {

namespace {

// One ladder level per round: disjoint group tournaments (one player unit
// each), per-group winner selection at the level barrier in group order, a
// singleton bye advancing free. Identical for any thread count by the
// engine's seeding discipline.
class MarcusRoundSource : public RoundSource {
 public:
  MarcusRoundSource(const std::vector<ElementId>& items,
                    const MarcusOptions& options)
      : group_size_(static_cast<size_t>(options.group_size)),
        current_(items) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (current_.size() <= 1) return false;
    // Only the final group can be short; a singleton advances as a bye.
    groups_.clear();
    has_bye_ = false;
    for (size_t start = 0; start < current_.size(); start += group_size_) {
      const size_t end = std::min(current_.size(), start + group_size_);
      if (end - start == 1) {
        has_bye_ = true;
        bye_ = current_[start];
      } else {
        groups_.emplace_back(current_.begin() + start, current_.begin() + end);
      }
    }
    round->units.resize(groups_.size());
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      round->units[gi].players = groups_[gi];
    }
    return true;
  }

  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    ++result_.rounds;
    result_.issued_comparisons += outcome.issued;
    std::vector<ElementId> winners;
    winners.reserve(groups_.size() + 1);
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      winners.push_back(
          groups_[gi][IndexOfMostWins(TallyTournament(outcome.losses[gi]))]);
    }
    if (has_bye_) winners.push_back(bye_);
    current_ = std::move(winners);
    return Status::OK();
  }

  MaxFindResult Finish(int64_t paid_delta) {
    result_.best = current_[0];
    result_.paid_comparisons = paid_delta;
    return std::move(result_);
  }

 private:
  const size_t group_size_;
  std::vector<ElementId> current_;
  std::vector<std::vector<ElementId>> groups_;
  bool has_bye_ = false;
  ElementId bye_ = -1;
  MaxFindResult result_;
};

}  // namespace

Result<MaxFindResult> MarcusTournamentMax(const std::vector<ElementId>& items,
                                          Comparator* comparator,
                                          const MarcusOptions& options) {
  CROWDMAX_CHECK(comparator != nullptr);
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  if (options.group_size < 2) {
    return Status::InvalidArgument("group_size must be >= 2");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  if (Status ids = CheckDistinctIds(items); !ids.ok()) return ids;

  Result<std::unique_ptr<RoundEngine>> engine =
      Execution(comparator).Engine(/*memoize=*/false, /*cache=*/nullptr, 0,
                                   options.threads, options.parallel_seed);
  if (!engine.ok()) return engine.status();

  MarcusRoundSource source(items, options);
  const int64_t paid_before = (*engine)->paid();
  Result<DriveResult> drive = (*engine)->Drive(&source);
  if (!drive.ok()) return drive.status();
  return source.Finish((*engine)->paid() - paid_before);
}

}  // namespace crowdmax
