#include "core/above.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/round_engine.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

// One round, then done. A whole-batch failure, transient or not, ends the
// drive.
class OneRoundSource : public RoundSource {
 public:
  explicit OneRoundSource(EngineRound round) : round_(std::move(round)) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (round_.units.empty()) return false;
    *round = std::move(round_);
    round_.units.clear();
    return true;
  }
  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    winners = outcome.winners[0];
    return outcome.fault;
  }

  std::vector<ElementId> winners;

 private:
  EngineRound round_;
};

// Asks `pairs` as one unmemoized round, labelled `span`, on `execution`,
// inside the phase span of `worker_class`: their winners in order,
// kUnresolvedWinner for a lost answer.
Result<std::vector<ElementId>> Ask(std::vector<ComparisonPair> pairs,
                                   const char* span, Execution execution,
                                   TraceWorkerClass worker_class,
                                   int64_t* paid, int64_t* steps) {
  TraceSpanScope phase_span(TraceWorkerClassName(worker_class), worker_class);
  Result<std::unique_ptr<RoundEngine>> engine =
      execution.Engine(/*memoize=*/false, /*cache=*/nullptr, 0);
  if (!engine.ok()) return engine.status();
  EngineRound round;
  round.span = span;
  round.record_round_cell = true;
  round.units.emplace_back().pairs = std::move(pairs);
  OneRoundSource source(std::move(round));
  if (Result<DriveResult> drive = (*engine)->Drive(&source); !drive.ok()) {
    return drive.status();
  }
  *paid = (*engine)->paid();
  *steps = (*engine)->logical_steps();
  return std::move(source.winners);
}

}  // namespace

Result<AboveResult> FindAbove(const std::vector<ElementId>& items,
                              ElementId anchor,
                              const AboveQueryOptions& options,
                              Execution naive, Execution expert) {
  const int64_t votes = options.votes_per_item;
  if (items.empty()) {
    return Status::InvalidArgument("item set must be non-empty");
  }
  if (votes < 1 || votes % 2 == 0) {
    return Status::InvalidArgument("votes_per_item must be odd and >= 1");
  }
  if (Status ids = CheckDistinctIds(items); !ids.ok()) return ids;
  if (anchor < 0 ||
      std::find(items.begin(), items.end(), anchor) != items.end()) {
    return Status::InvalidArgument(
        "anchor must be a non-negative id that is not among the items");
  }
  TraceSpanScope run_span(TraceSpanKind::kRun, "above");

  AboveResult result;
  std::vector<ComparisonPair> panels;
  panels.reserve(items.size() * static_cast<size_t>(votes));
  for (ElementId item : items) {
    panels.insert(panels.end(), static_cast<size_t>(votes), {item, anchor});
  }
  Result<std::vector<ElementId>> answers =
      Ask(std::move(panels), "panels", naive, TraceWorkerClass::kNaive,
          &result.paid.naive, &result.naive_steps);
  if (!answers.ok()) return answers.status();

  // A lost vote is not counted, and its item escalates, keeping its naive
  // majority over the votes that arrived, the anchor winning ties.
  std::vector<bool> majority_above;
  std::vector<ComparisonPair> escalations;
  const ElementId* vote = answers->data();
  for (ElementId item : items) {
    int64_t wins = 0;
    int64_t counted = 0;
    for (int64_t v = 0; v < votes; ++v, ++vote) {
      counted += *vote != kUnresolvedWinner;
      wins += *vote == item;
    }
    result.partial = result.partial || counted < votes;
    if (counted == votes && (wins == 0 || wins == votes)) {
      (wins == votes ? result.above : result.below).push_back(item);
      continue;
    }
    result.escalated.push_back(item);
    majority_above.push_back(2 * wins > counted);
    escalations.push_back({item, anchor});
  }

  std::vector<ElementId> verdicts;
  if (options.expert_refine && !escalations.empty()) {
    Result<std::vector<ElementId>> asked =
        Ask(std::move(escalations), "escalations", expert,
            TraceWorkerClass::kExpert, &result.paid.expert,
            &result.expert_steps);
    if (!asked.ok()) return asked.status();
    verdicts = std::move(asked).value();
  }
  for (size_t j = 0; j < result.escalated.size(); ++j) {
    const ElementId item = result.escalated[j];
    bool is_above = majority_above[j];
    if (!verdicts.empty() && verdicts[j] == kUnresolvedWinner) {
      result.partial = true;
    } else if (!verdicts.empty()) {
      is_above = verdicts[j] == item;
    }
    (is_above ? result.above : result.below).push_back(item);
  }
  return result;
}

}  // namespace crowdmax
