#include "core/maxfind.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/checkpoint.h"
#include "core/round_engine.h"
#include "core/tournament.h"

namespace crowdmax {

namespace {

constexpr uint32_t kTwoMaxTag = CheckpointTag("2MAX");
constexpr uint32_t kRandTag = CheckpointTag("RMAX");

Status ValidateItems(const std::vector<ElementId>& items) {
  if (items.empty()) {
    return Status::InvalidArgument("candidate set must be non-empty");
  }
  return CheckDistinctIds(items);
}

int64_t CeilSqrt(int64_t s) {
  int64_t r = static_cast<int64_t>(std::ceil(std::sqrt(static_cast<double>(s))));
  while (r * r < s) ++r;
  while (r > 1 && (r - 1) * (r - 1) >= s) --r;
  return r;
}

// Algorithm 3 as a round generator. One algorithm round spans two engine
// rounds — the sample tournament, a barrier to pick the pivot, then the
// elimination scan — so the trace round span opens on the sample round and
// closes on the scan round. The sample and final tournaments are player
// units.
class TwoMaxFindSource : public RoundSource {
 public:
  TwoMaxFindSource(const std::vector<ElementId>& items, bool partial_evidence,
                   bool speculate)
      : partial_evidence_(partial_evidence),
        speculate_(speculate),
        candidates_(items) {
    const int64_t s = static_cast<int64_t>(items.size());
    k_ = CeilSqrt(s);
    // Without memoization an inconsistent answer stream can stall the
    // elimination loop; bound the number of rounds (generous: with
    // consistent answers each round removes >= (k-1)/2 elements).
    max_rounds_ = 4 * s + 16;
  }

  Result<bool> NextRound(EngineRound* round) override {
    if (phase_ == Phase::kSample &&
        static_cast<int64_t>(candidates_.size()) <= k_) {
      phase_ = Phase::kFinal;
    }
    switch (phase_) {
      case Phase::kSample: {
        if (result_.rounds >= max_rounds_) {
          return partial_evidence_
                     ? Status::Internal(
                           "batched 2-MaxFind exceeded its round budget; "
                           "executor answers are inconsistent")
                     : Status::Internal(
                           "2-MaxFind exceeded its round budget; comparator "
                           "answers are inconsistent (enable memoization)");
        }
        // Step 3: arbitrary ceil(sqrt(s)) candidates — take the first k
        // (the paper allows any choice; deterministic for reproducibility).
        sample_.assign(candidates_.begin(), candidates_.begin() + k_);
        round->units.emplace_back().players = sample_;
        round->span = "sample";
        round->open_round = result_.rounds + 1;
        awaiting_sample_ = true;
        return true;
      }
      case Phase::kScan: {
        // Step 4: compare the pivot against all candidates. The pivot goes
        // first so AdversarialPolicy::kFirstLoses models the paper's worst
        // case.
        RoundUnit unit;
        unit.pairs.reserve(candidates_.size());
        for (ElementId y : candidates_) {
          if (y != pivot_) unit.pairs.push_back({pivot_, y});
        }
        round->units.push_back(std::move(unit));
        round->span = "scan";
        round->close_round = true;
        return true;
      }
      case Phase::kFinal: {
        // Step 6: final tournament among the surviving candidates.
        round->units.emplace_back().players = candidates_;
        round->span = "final";
        return true;
      }
      case Phase::kDone:
        return false;
    }
    return Status::Internal("unreachable");
  }

  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    result_.issued_comparisons += outcome.issued;
    switch (phase_) {
      case Phase::kSample: {
        ++result_.rounds;
        awaiting_sample_ = false;
        const TournamentResult tournament = TallyTournament(outcome.losses[0]);
        sample_unresolved_ = tournament.unresolved;
        sample_fault_ = outcome.fault;
        pivot_ = sample_[IndexOfMostWins(tournament)];
        phase_ = Phase::kScan;
        return Status::OK();
      }
      case Phase::kScan: {
        // An unresolved scan comparison is missing evidence: the element
        // survives (no elimination without a counted loss) and the pair is
        // re-issued by a later round through the engine cache.
        int64_t unresolved_scan = 0;
        std::vector<ElementId> survivors;
        survivors.reserve(candidates_.size());
        const std::vector<ElementId>& winners = outcome.winners[0];
        size_t t = 0;
        for (ElementId y : candidates_) {
          if (y == pivot_) {
            survivors.push_back(y);
            continue;
          }
          const ElementId winner = winners[t++];
          if (winner == kUnresolvedWinner) {
            ++unresolved_scan;
            survivors.push_back(y);
            continue;
          }
          if (winner != pivot_) survivors.push_back(y);
        }
        const bool progress = survivors.size() < candidates_.size();
        candidates_ = std::move(survivors);

        const bool faulty = sample_unresolved_ > 0 || unresolved_scan > 0 ||
                            !sample_fault_.ok() || !outcome.fault.ok();
        if (!progress && faulty) {
          // Faults withheld the evidence this round needed; the executor's
          // own recovery already ran, so stop and report the field as it
          // stands.
          partial_ = true;
          fault_status_ =
              !outcome.fault.ok() ? outcome.fault
              : !sample_fault_.ok()
                  ? sample_fault_
                  : Status::Unavailable(
                        "2-MaxFind round made no progress: " +
                        std::to_string(sample_unresolved_ + unresolved_scan) +
                        " comparisons unresolved after executor recovery");
          survivors_ = candidates_;
          phase_ = Phase::kDone;
          return Status::OK();
        }
        phase_ = Phase::kSample;
        return Status::OK();
      }
      case Phase::kFinal: {
        const TournamentResult tournament = TallyTournament(outcome.losses[0]);
        const int64_t unresolved = tournament.unresolved;
        result_.best = candidates_[IndexOfMostWins(tournament)];
        if (unresolved > 0 || !outcome.fault.ok()) {
          // The final tournament ran on incomplete evidence: `best` is the
          // provisional leader, flagged partial so callers can tell.
          partial_ = true;
          fault_status_ =
              !outcome.fault.ok()
                  ? outcome.fault
                  : Status::Unavailable(
                        "final tournament left " + std::to_string(unresolved) +
                        " comparisons unresolved; best is provisional");
          survivors_ = candidates_;
        }
        phase_ = Phase::kDone;
        return Status::OK();
      }
      case Phase::kDone:
        break;
    }
    return Status::Internal("unreachable");
  }

  // Speculation (DESIGN.md §15): while a sample tournament is in flight,
  // predict its winner and emit the elimination scan against that pivot.
  // The prediction is the lowest-indexed sample member — the sample is the
  // candidate prefix, so callers ordering candidates by prior strength
  // (phase-1 win counts) make it a strong guess, while
  // AdversarialPolicy::kFirstLoses (sample_[0] is always the first
  // argument, so it always loses) drives the hit rate to zero — the
  // misprediction-accounting worst case.
  bool CanSpeculateNextRound() const override {
    return speculate_ && awaiting_sample_ && !spec_outstanding_;
  }

  Result<bool> SpeculateNextRound(EngineRound* round) override {
    CROWDMAX_CHECK(CanSpeculateNextRound());
    predicted_pivot_ = sample_.front();
    RoundUnit unit;
    unit.pairs.reserve(candidates_.size());
    for (ElementId y : candidates_) {
      if (y != predicted_pivot_) unit.pairs.push_back({predicted_pivot_, y});
    }
    round->units.push_back(std::move(unit));
    round->span = "scan";
    round->close_round = true;
    spec_outstanding_ = true;
    return true;
  }

  SpeculationVerdict ReconcileSpeculation() override {
    CROWDMAX_CHECK(spec_outstanding_);
    if (predicted_pivot_ == pivot_) {
      spec_outstanding_ = false;
      predicted_pivot_ = -1;
      return SpeculationVerdict::kConfirmed;
    }
    return SpeculationVerdict::kMispredicted;
  }

  void OnSpeculationAborted() override {
    // The phase machine never advanced on speculation, so dropping the
    // prediction is the whole rollback; NextRound re-emits the scan with
    // the true pivot.
    spec_outstanding_ = false;
    predicted_pivot_ = -1;
  }

  MaxFindResult Finish(int64_t paid_delta, int64_t steps_delta) {
    result_.paid_comparisons = paid_delta;
    result_.logical_steps = steps_delta;
    result_.partial = partial_;
    result_.fault_status = fault_status_;
    result_.survivors = std::move(survivors_);
    return std::move(result_);
  }

  Status SaveState(CheckpointWriter* writer) const override {
    writer->WriteTag(kTwoMaxTag);
    writer->WriteIdVector(candidates_);
    writer->WriteI64(k_);
    writer->WriteI64(max_rounds_);
    writer->WriteI64(static_cast<int64_t>(phase_));
    writer->WriteIdVector(sample_);
    writer->WriteI64(pivot_);
    writer->WriteI64(sample_unresolved_);
    writer->WriteStatus(sample_fault_);
    writer->WriteI64(result_.best);
    writer->WriteI64(result_.paid_comparisons);
    writer->WriteI64(result_.issued_comparisons);
    writer->WriteI64(result_.rounds);
    writer->WriteBool(partial_);
    writer->WriteStatus(fault_status_);
    writer->WriteIdVector(survivors_);
    // Speculation bookkeeping. Checkpoints are cut at quiescent
    // boundaries (no round in flight), so these are always the rest
    // values; they are serialized anyway so the state invariant is "the
    // whole source", not "the fields that happen to matter".
    writer->WriteBool(awaiting_sample_);
    writer->WriteBool(spec_outstanding_);
    writer->WriteI64(predicted_pivot_);
    return Status::OK();
  }

  Status LoadState(CheckpointReader* reader) override {
    reader->ExpectTag(kTwoMaxTag);
    reader->ReadIdVector(&candidates_);
    k_ = reader->ReadI64();
    max_rounds_ = reader->ReadI64();
    phase_ = static_cast<Phase>(reader->ReadI64());
    reader->ReadIdVector(&sample_);
    pivot_ = static_cast<ElementId>(reader->ReadI64());
    sample_unresolved_ = reader->ReadI64();
    sample_fault_ = reader->ReadStatus();
    result_.best = static_cast<ElementId>(reader->ReadI64());
    result_.paid_comparisons = reader->ReadI64();
    result_.issued_comparisons = reader->ReadI64();
    result_.rounds = reader->ReadI64();
    partial_ = reader->ReadBool();
    fault_status_ = reader->ReadStatus();
    reader->ReadIdVector(&survivors_);
    awaiting_sample_ = reader->ReadBool();
    spec_outstanding_ = reader->ReadBool();
    predicted_pivot_ = static_cast<ElementId>(reader->ReadI64());
    return reader->status();
  }

 private:
  enum class Phase { kSample, kScan, kFinal, kDone };

  const bool partial_evidence_;
  const bool speculate_;
  std::vector<ElementId> candidates_;
  int64_t k_ = 0;
  int64_t max_rounds_ = 0;
  Phase phase_ = Phase::kSample;
  std::vector<ElementId> sample_;
  ElementId pivot_ = -1;
  int64_t sample_unresolved_ = 0;
  Status sample_fault_ = Status::OK();
  MaxFindResult result_;
  bool partial_ = false;
  Status fault_status_ = Status::OK();
  std::vector<ElementId> survivors_;
  // True between a sample round's emission and its consumption — the only
  // window in which the follow-up scan is predictable.
  bool awaiting_sample_ = false;
  bool spec_outstanding_ = false;
  ElementId predicted_pivot_ = -1;
};

// Algorithm 5 as a round generator. Each elimination round draws the
// witness sample and shuffles the survivors (both from the source's own
// RNG — the engine never consumes algorithm randomness), then plays one
// all-play-all per group; a final round decides among the witness set plus
// the remaining survivors. Every tournament is a player unit.
class RandomizedMaxFindSource : public RoundSource {
 public:
  RandomizedMaxFindSource(const std::vector<ElementId>& items,
                          const RandomizedMaxFindOptions& options,
                          bool partial_evidence)
      : partial_evidence_(partial_evidence),
        pipeline_groups_(options.pipeline_groups),
        rng_(options.seed),
        survivors_(items) {
    const int64_t s = static_cast<int64_t>(items.size());
    threshold_ = std::pow(static_cast<double>(s), options.sample_exponent);
    sample_size_ = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(threshold_)));
    group_size_ = options.group_size_override > 0 ? options.group_size_override
                                                  : 80 * (options.c + 2);
  }

  Result<bool> NextRound(EngineRound* round) override {
    if (done_) return false;
    if (pipeline_groups_ && next_emit_group_ < groups_.size()) {
      // Mid logical round: the witness sample, shuffle and partition were
      // all drawn at the first group's emission, so the remaining groups
      // are fully determined — each one becomes its own engine round.
      EmitGroup(groups_[next_emit_group_], round);
      ++next_emit_group_;
      return true;
    }
    // Logical-round boundary: grouped emission must have been fully
    // consumed (the barrier resets the cursors and clears the partition).
    CROWDMAX_CHECK(!pipeline_groups_ ||
                   (groups_.empty() && next_emit_group_ == 0));
    if (final_pending_ ||
        static_cast<double>(survivors_.size()) < threshold_ ||
        survivors_.size() <= 1) {
      // Lines 9-10: final tournament over W plus the remaining survivors.
      for (ElementId e : survivors_) witness_set_.insert(e);
      finalists_.assign(witness_set_.begin(), witness_set_.end());
      std::sort(finalists_.begin(), finalists_.end());  // Determinism.
      round->units.emplace_back().players = finalists_;
      round->span = "final";
      in_final_ = true;
      return true;
    }

    // Line 3: sample |S|^0.3 random survivors into the witness set W.
    const size_t n = survivors_.size();
    const size_t draw = std::min<size_t>(static_cast<size_t>(sample_size_), n);
    for (size_t idx : rng_.SampleWithoutReplacement(n, draw)) {
      witness_set_.insert(survivors_[idx]);
    }

    // Line 4: random partition into groups of 80*(c+2). Only the last
    // chunk can be a singleton; it has no minimal element to eliminate and
    // advances untouched.
    rng_.Shuffle(&survivors_);
    groups_.clear();
    passthrough_.clear();
    for (size_t start = 0; start < survivors_.size();
         start += static_cast<size_t>(group_size_)) {
      const size_t end = std::min(survivors_.size(),
                                  start + static_cast<size_t>(group_size_));
      if (end - start < 2) {
        passthrough_.assign(survivors_.begin() + start, survivors_.begin() + end);
      } else {
        groups_.emplace_back(survivors_.begin() + start,
                             survivors_.begin() + end);
      }
    }
    if (pipeline_groups_) {
      // Survivors >= 2 here, so the partition always yields at least one
      // group of >= 2 elements.
      CROWDMAX_CHECK(!groups_.empty());
      round_next_.clear();
      round_next_.reserve(survivors_.size());
      round_unresolved_ = 0;
      round_fault_ = Status::OK();
      next_consume_group_ = 0;
      EmitGroup(groups_[0], round);
      next_emit_group_ = 1;
      return true;
    }
    round->units.reserve(groups_.size());
    for (const std::vector<ElementId>& group : groups_) {
      EmitGroup(group, round);
    }
    return true;
  }

  // A logical round's groups are pairwise disjoint, so once the first is
  // in flight the rest may follow without waiting (firm pipelining).
  // Starting the *next* logical round needs this one's survivor set, so
  // the cursor stops at the partition edge.
  bool CanPipelineNextRound() const override {
    return pipeline_groups_ && !done_ && !in_final_ &&
           next_emit_group_ > 0 && next_emit_group_ < groups_.size();
  }

  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    result_.issued_comparisons += outcome.issued;
    if (in_final_) {
      const TournamentResult tournament = TallyTournament(outcome.losses[0]);
      const int64_t unresolved = tournament.unresolved;
      result_.best = finalists_[IndexOfMostWins(tournament)];
      if (unresolved > 0 || !outcome.fault.ok()) {
        partial_ = true;
        if (fault_status_.ok()) {
          fault_status_ =
              !outcome.fault.ok()
                  ? outcome.fault
                  : Status::Unavailable(
                        "final tournament left " + std::to_string(unresolved) +
                        " comparisons unresolved; best is provisional");
        }
        run_survivors_ = finalists_;
      }
      done_ = true;
      return Status::OK();
    }

    if (pipeline_groups_) {
      // One group per engine round: accumulate this group's verdict and
      // apply the logical-round barrier when the last group lands.
      const std::vector<ElementId>& group = groups_[next_consume_group_];
      const TournamentResult tournament = TallyTournament(outcome.losses[0]);
      round_unresolved_ += tournament.unresolved;
      if (round_fault_.ok() && !outcome.fault.ok()) {
        round_fault_ = outcome.fault;
      }
      if (tournament.unresolved > 0) {
        round_next_.insert(round_next_.end(), group.begin(), group.end());
      } else {
        const size_t minimal = IndexOfFewestWins(tournament);
        for (size_t i = 0; i < group.size(); ++i) {
          if (i != minimal) round_next_.push_back(group[i]);
        }
      }
      ++next_consume_group_;
      if (next_consume_group_ < groups_.size()) return Status::OK();

      // Logical-round barrier (lines 5-6 take effect together).
      ++result_.rounds;
      round_next_.insert(round_next_.end(), passthrough_.begin(),
                         passthrough_.end());
      if (round_next_.size() >= survivors_.size()) {
        CROWDMAX_CHECK(partial_evidence_);
        CROWDMAX_CHECK(round_unresolved_ > 0 || !round_fault_.ok());
        partial_ = true;
        fault_status_ =
            !round_fault_.ok()
                ? round_fault_
                : Status::Unavailable(
                      "randomized elimination round made no progress: " +
                      std::to_string(round_unresolved_) +
                      " comparisons unresolved after executor recovery");
        final_pending_ = true;
      }
      survivors_ = std::move(round_next_);
      round_next_.clear();
      groups_.clear();
      passthrough_.clear();
      next_emit_group_ = 0;
      next_consume_group_ = 0;
      round_unresolved_ = 0;
      round_fault_ = Status::OK();
      return Status::OK();
    }

    // Lines 5-6: in each group, eliminate the element with the fewest
    // wins — unless evidence is missing for the group, in which case it
    // eliminates nobody (no eviction without evidence).
    ++result_.rounds;
    int64_t unresolved_pairs = 0;
    std::vector<ElementId> next;
    next.reserve(survivors_.size());
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      const std::vector<ElementId>& group = groups_[gi];
      const TournamentResult tournament = TallyTournament(outcome.losses[gi]);
      unresolved_pairs += tournament.unresolved;
      if (tournament.unresolved > 0) {
        next.insert(next.end(), group.begin(), group.end());
        continue;
      }
      const size_t minimal = IndexOfFewestWins(tournament);
      for (size_t i = 0; i < group.size(); ++i) {
        if (i != minimal) next.push_back(group[i]);
      }
    }
    next.insert(next.end(), passthrough_.begin(), passthrough_.end());

    if (next.size() >= survivors_.size()) {
      // With full evidence every group of >= 2 eliminates exactly one
      // element, so a stalled round means faults withheld evidence: skip
      // straight to the final tournament (the witness set is intact, so
      // the guarantee degrades gracefully rather than looping forever).
      CROWDMAX_CHECK(partial_evidence_);
      CROWDMAX_CHECK(unresolved_pairs > 0 || !outcome.fault.ok());
      partial_ = true;
      fault_status_ =
          !outcome.fault.ok()
              ? outcome.fault
              : Status::Unavailable(
                    "randomized elimination round made no progress: " +
                    std::to_string(unresolved_pairs) +
                    " comparisons unresolved after executor recovery");
      final_pending_ = true;
    }
    survivors_ = std::move(next);
    return Status::OK();
  }

  MaxFindResult Finish(int64_t paid_delta, int64_t steps_delta) {
    result_.paid_comparisons = paid_delta;
    result_.logical_steps = steps_delta;
    result_.partial = partial_;
    result_.fault_status = fault_status_;
    result_.survivors = std::move(run_survivors_);
    return std::move(result_);
  }

  // The RNG stream position is part of the state: a resumed run must draw
  // the same witness samples and shuffles the uninterrupted run would have.
  Status SaveState(CheckpointWriter* writer) const override {
    writer->WriteTag(kRandTag);
    writer->WriteRngState(rng_.state());
    writer->WriteIdVector(survivors_);
    writer->WriteSortedSet(witness_set_);
    writer->WriteU64(static_cast<uint64_t>(groups_.size()));
    for (const std::vector<ElementId>& group : groups_) {
      writer->WriteIdVector(group);
    }
    writer->WriteIdVector(passthrough_);
    writer->WriteIdVector(finalists_);
    writer->WriteBool(in_final_);
    writer->WriteBool(final_pending_);
    writer->WriteBool(done_);
    writer->WriteI64(result_.best);
    writer->WriteI64(result_.paid_comparisons);
    writer->WriteI64(result_.issued_comparisons);
    writer->WriteI64(result_.rounds);
    writer->WriteBool(partial_);
    writer->WriteStatus(fault_status_);
    writer->WriteIdVector(run_survivors_);
    // Grouped-emission cursors and the partially-built survivor set:
    // with pipeline_groups the engine checkpoints between *group* rounds,
    // i.e. mid logical round, so these carry real state.
    writer->WriteI64(static_cast<int64_t>(next_emit_group_));
    writer->WriteI64(static_cast<int64_t>(next_consume_group_));
    writer->WriteIdVector(round_next_);
    writer->WriteI64(round_unresolved_);
    writer->WriteStatus(round_fault_);
    return Status::OK();
  }

  Status LoadState(CheckpointReader* reader) override {
    reader->ExpectTag(kRandTag);
    rng_.set_state(reader->ReadRngState());
    reader->ReadIdVector(&survivors_);
    reader->ReadSortedSet(&witness_set_);
    const uint64_t n_groups = reader->ReadU64();
    groups_.clear();
    for (uint64_t i = 0; i < n_groups && reader->status().ok(); ++i) {
      std::vector<ElementId> group;
      reader->ReadIdVector(&group);
      groups_.push_back(std::move(group));
    }
    reader->ReadIdVector(&passthrough_);
    reader->ReadIdVector(&finalists_);
    in_final_ = reader->ReadBool();
    final_pending_ = reader->ReadBool();
    done_ = reader->ReadBool();
    result_.best = static_cast<ElementId>(reader->ReadI64());
    result_.paid_comparisons = reader->ReadI64();
    result_.issued_comparisons = reader->ReadI64();
    result_.rounds = reader->ReadI64();
    partial_ = reader->ReadBool();
    fault_status_ = reader->ReadStatus();
    reader->ReadIdVector(&run_survivors_);
    next_emit_group_ = static_cast<size_t>(reader->ReadI64());
    next_consume_group_ = static_cast<size_t>(reader->ReadI64());
    reader->ReadIdVector(&round_next_);
    round_unresolved_ = reader->ReadI64();
    round_fault_ = reader->ReadStatus();
    return reader->status();
  }

 private:
  static void EmitGroup(const std::vector<ElementId>& group,
                        EngineRound* round) {
    round->units.emplace_back().players = group;
  }

  const bool partial_evidence_;
  const bool pipeline_groups_;
  Rng rng_;
  std::vector<ElementId> survivors_;
  double threshold_ = 0.0;
  int64_t sample_size_ = 0;
  int64_t group_size_ = 0;
  std::unordered_set<ElementId> witness_set_;
  std::vector<std::vector<ElementId>> groups_;
  std::vector<ElementId> passthrough_;
  std::vector<ElementId> finalists_;
  bool in_final_ = false;
  bool final_pending_ = false;
  bool done_ = false;
  MaxFindResult result_;
  bool partial_ = false;
  Status fault_status_ = Status::OK();
  std::vector<ElementId> run_survivors_;
  // Grouped emission (pipeline_groups): emit/consume cursors over the
  // current partition, plus the survivor set under construction and the
  // evidence tallies the barrier needs.
  size_t next_emit_group_ = 0;
  size_t next_consume_group_ = 0;
  std::vector<ElementId> round_next_;
  int64_t round_unresolved_ = 0;
  Status round_fault_ = Status::OK();
};

Status ValidateRandomizedOptions(const RandomizedMaxFindOptions& options) {
  if (options.c < 0) return Status::InvalidArgument("c must be >= 0");
  if (options.sample_exponent <= 0.0 || options.sample_exponent >= 1.0) {
    return Status::InvalidArgument("sample_exponent must be in (0, 1)");
  }
  if (options.group_size_override < 0) {
    return Status::InvalidArgument("group_size_override must be >= 0");
  }
  return Status::OK();
}

// Drives `source` on `engine` and hands it the run's paid and step
// deltas. Mispredicted speculative spend is reported on the engine's
// speculation_wasted counter, never in paid_comparisons — the result is
// numerically identical to the sync drive's.
template <typename Source>
Result<MaxFindResult> DriveMaxFind(Source* source, RoundEngine* engine) {
  const int64_t paid_before = engine->paid();
  const int64_t wasted_before = engine->speculation_wasted();
  const int64_t steps_before = engine->logical_steps();
  Result<DriveResult> drive = engine->Drive(source);
  if (!drive.ok()) return drive.status();
  return source->Finish((engine->paid() - paid_before) -
                            (engine->speculation_wasted() - wasted_before),
                        engine->logical_steps() - steps_before);
}

}  // namespace

Result<MaxFindResult> AllPlayAllMax(const std::vector<ElementId>& items,
                                    Comparator* comparator) {
  CROWDMAX_CHECK(comparator != nullptr);
  Status status = ValidateItems(items);
  if (!status.ok()) return status;

  const int64_t before = comparator->num_comparisons();
  const Result<TournamentResult> tournament = AllPlayAll(items, comparator);
  if (!tournament.ok()) return tournament.status();

  MaxFindResult result;
  result.best = items[IndexOfMostWins(*tournament)];
  result.issued_comparisons = tournament->comparisons;
  result.paid_comparisons = comparator->num_comparisons() - before;
  result.rounds = 0;
  return result;
}

Result<MaxFindResult> RunTwoMaxFindOnEngine(
    const std::vector<ElementId>& items, RoundEngine* engine,
    const TwoMaxFindOptions& options) {
  CROWDMAX_CHECK(engine != nullptr);
  Status status = ValidateItems(items);
  if (!status.ok()) return status;
  TwoMaxFindSource source(items, engine->SupportsPartialEvidence(),
                          options.speculate);
  return DriveMaxFind(&source, engine);
}

Result<MaxFindResult> TwoMaxFind(const std::vector<ElementId>& items,
                                 Execution execution,
                                 const TwoMaxFindOptions& options) {
  Result<std::unique_ptr<RoundEngine>> engine = execution.Engine(
      options.memoize, options.shared_cache, options.cache_class);
  if (!engine.ok()) return engine.status();
  return RunTwoMaxFindOnEngine(items, engine->get(), options);
}

int64_t TwoMaxFindComparisonUpperBound(int64_t s) {
  return static_cast<int64_t>(
      std::ceil(2.0 * std::pow(static_cast<double>(s), 1.5)));
}

Result<MaxFindResult> RunRandomizedMaxFindOnEngine(
    const std::vector<ElementId>& items, RoundEngine* engine,
    const RandomizedMaxFindOptions& options) {
  CROWDMAX_CHECK(engine != nullptr);
  Status status = ValidateItems(items);
  if (!status.ok()) return status;
  if (Status opt_status = ValidateRandomizedOptions(options);
      !opt_status.ok()) {
    return opt_status;
  }
  RandomizedMaxFindSource source(items, options,
                                 engine->SupportsPartialEvidence());
  return DriveMaxFind(&source, engine);
}

Result<MaxFindResult> RandomizedMaxFind(
    const std::vector<ElementId>& items, Execution execution,
    const RandomizedMaxFindOptions& options) {
  Result<std::unique_ptr<RoundEngine>> engine =
      execution.Engine(/*memoize=*/false, /*cache=*/nullptr, 0);
  if (!engine.ok()) return engine.status();
  return RunRandomizedMaxFindOnEngine(items, engine->get(), options);
}

}  // namespace crowdmax
