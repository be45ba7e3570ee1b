#include "core/filter_phase.h"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/checkpoint.h"
#include "core/round_engine.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

constexpr uint32_t kFilterTag = CheckpointTag("FLT ");

Status ValidateFilterInput(const std::vector<ElementId>& items,
                           const FilterOptions& options) {
  if (options.u_n < 1) {
    return Status::InvalidArgument("u_n must be >= 1");
  }
  if (options.group_size_multiplier < 2) {
    return Status::InvalidArgument("group_size_multiplier must be >= 2");
  }
  if (options.max_comparisons < 0) {
    return Status::InvalidArgument("max_comparisons must be >= 0");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  return CheckDistinctIds(items);
}

// Algorithm 2 as a round generator. The source holds only algorithm state
// (survivor set, loss counters); every per-round mechanism — group
// dispatch, memoization, the max_comparisons budget gate, trace cells —
// lives in the engine.
class FilterRoundSource : public RoundSource {
 public:
  FilterRoundSource(const std::vector<ElementId>& items,
                    const FilterOptions& options, bool partial_evidence)
      : options_(options),
        partial_evidence_(partial_evidence),
        group_rounds_(options.pipeline_groups),
        current_(items) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (done_) return false;
    if (!group_rounds_) {
      if (!Partition()) return false;
      round->units.resize(groups_.size());
      for (size_t gi = 0; gi < groups_.size(); ++gi) {
        round->units[gi].players = groups_[gi];
      }
      round->open_round = result_.rounds + 1;
      round->close_round = true;
      round->record_round_cell = true;
      return true;
    }

    // Group-granular emission: one engine round per group. The logical
    // round's trace span opens with the first group and closes with the
    // last group's consume, so the span shape matches the combined
    // emission. A freshly-partitioned logical round never overlaps the
    // previous one (CanPipelineNextRound went false at its last group, so
    // the engine drained the pipeline before calling here again).
    if (next_emit_ >= groups_.size()) {
      if (!Partition()) return false;
    }
    round->units.emplace_back().players = groups_[next_emit_];
    if (next_emit_ == 0) round->open_round = result_.rounds + 1;
    round->close_round = next_emit_ + 1 == groups_.size();
    round->record_round_cell = true;
    ++next_emit_;
    return true;
  }

  bool CanPipelineNextRound() const override {
    // The remaining groups of a partitioned logical round are
    // latency-independent: their pair sets are disjoint (groups share no
    // element) and their content was fixed at partition time. The first
    // group of the *next* logical round depends on this round's survivor
    // selection, so emission stops pipelining at the round boundary.
    return group_rounds_ && !done_ && next_emit_ > 0 &&
           next_emit_ < groups_.size();
  }

  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    recurring_ = {};
    const bool first = group_rounds_ ? next_consume_ == 0 : true;
    if (first) {
      result_.round_sizes.push_back(static_cast<int64_t>(current_.size()));
      ++result_.rounds;
      round_next_.clear();
      round_next_.reserve(current_.size() / 2 + 1);
      round_unresolved_ = 0;
      round_fault_ = Status::OK();
    }
    result_.issued_comparisons += outcome.issued;
    if (round_fault_.ok() && !outcome.fault.ok()) round_fault_ = outcome.fault;

    // Barrier work, single-threaded and in group order: tallies, loss
    // counters, survivor selection (once every group of the logical round
    // is in). No trace operations happen here — the pipelining legality
    // rule (c) that keeps interleaved consumes trace-silent.
    if (!group_rounds_) {
      for (size_t gi = 0; gi < groups_.size(); ++gi) {
        TallyLosses(groups_[gi], outcome.losses[gi]);
      }
      return FinishLogicalRound();
    }
    const size_t survivors_from = round_next_.size();
    TallyLosses(groups_[next_consume_], outcome.losses[0]);
    ++next_consume_;
    if (next_consume_ == groups_.size()) return FinishLogicalRound();
    recurring_ =
        std::span<const ElementId>(round_next_).subspan(survivors_from);
    return Status::OK();
  }

  void OnBudgetStop() override { result_.stopped_by_budget = true; }

  // Algorithm 2 regroups only survivors, and groups are disjoint, so a
  // pair can come back only if both of its elements survive. After a
  // group's consume those are the group's survivors (a later loss-counter
  // eviction may still drop some); after a logical round, the new survivor
  // set; nothing once the loop is about to exit.
  bool NamesRecurringElements() const override { return true; }
  std::span<const ElementId> RecurringElements() const override {
    return recurring_;
  }

  // Full algorithm state, including the mid-logical-round cursors of
  // group-granular emission — a boundary between two groups of the same
  // logical round is a legal snapshot point (emission == consumption there,
  // since the engine only checkpoints with nothing in flight).
  Status SaveState(CheckpointWriter* writer) const override {
    writer->WriteTag(kFilterTag);
    writer->WriteIdVector(current_);
    writer->WriteU64(static_cast<uint64_t>(groups_.size()));
    for (const std::vector<ElementId>& group : groups_) {
      writer->WriteIdVector(group);
    }
    writer->WriteIdVector(tail_);
    writer->WriteU64(static_cast<uint64_t>(next_emit_));
    writer->WriteU64(static_cast<uint64_t>(next_consume_));
    writer->WriteIdVector(round_next_);
    writer->WriteI64(round_unresolved_);
    writer->WriteStatus(round_fault_);
    std::vector<ElementId> loss_keys;
    loss_keys.reserve(losses_.size());
    for (const auto& entry : losses_) loss_keys.push_back(entry.first);
    std::sort(loss_keys.begin(), loss_keys.end());
    writer->WriteU64(static_cast<uint64_t>(loss_keys.size()));
    for (ElementId key : loss_keys) {
      writer->WriteI64(key);
      writer->WriteSortedSet(losses_.at(key));
    }
    writer->WriteIdVector(result_.candidates);
    writer->WriteI64(result_.paid_comparisons);
    writer->WriteI64(result_.issued_comparisons);
    writer->WriteI64(result_.rounds);
    writer->WriteIdVector(result_.round_sizes);
    writer->WriteI64(result_.evicted_by_loss_counter);
    writer->WriteBool(result_.hit_empty_round);
    writer->WriteBool(result_.stopped_by_budget);
    writer->WriteBool(partial_);
    writer->WriteStatus(fault_status_);
    writer->WriteBool(done_);
    return Status::OK();
  }

  Status LoadState(CheckpointReader* reader) override {
    reader->ExpectTag(kFilterTag);
    reader->ReadIdVector(&current_);
    const uint64_t n_groups = reader->ReadU64();
    groups_.clear();
    for (uint64_t i = 0; i < n_groups && reader->status().ok(); ++i) {
      std::vector<ElementId> group;
      reader->ReadIdVector(&group);
      groups_.push_back(std::move(group));
    }
    reader->ReadIdVector(&tail_);
    next_emit_ = static_cast<size_t>(reader->ReadU64());
    next_consume_ = static_cast<size_t>(reader->ReadU64());
    reader->ReadIdVector(&round_next_);
    round_unresolved_ = reader->ReadI64();
    round_fault_ = reader->ReadStatus();
    const uint64_t n_losses = reader->ReadU64();
    losses_.clear();
    for (uint64_t i = 0; i < n_losses && reader->status().ok(); ++i) {
      const ElementId key = reader->ReadI64();
      reader->ReadSortedSet(&losses_[key]);
    }
    reader->ReadIdVector(&result_.candidates);
    result_.paid_comparisons = reader->ReadI64();
    result_.issued_comparisons = reader->ReadI64();
    result_.rounds = reader->ReadI64();
    reader->ReadIdVector(&result_.round_sizes);
    result_.evicted_by_loss_counter = reader->ReadI64();
    result_.hit_empty_round = reader->ReadBool();
    result_.stopped_by_budget = reader->ReadBool();
    partial_ = reader->ReadBool();
    fault_status_ = reader->ReadStatus();
    done_ = reader->ReadBool();
    recurring_ = {};
    return reader->status();
  }

  FilterResult Finish(int64_t paid_delta, int64_t steps_delta) {
    result_.candidates = std::move(current_);
    result_.paid_comparisons = paid_delta;
    result_.logical_steps = steps_delta;
    result_.partial = partial_;
    result_.fault_status = fault_status_;
    return std::move(result_);
  }

 private:
  /// Partitions the survivors into this logical round's groups (only the
  /// final group can be short; with at most u_n elements it advances
  /// untouched, since a tournament could not eliminate anyone anyway —
  /// everyone keeps at least |G| - u_n <= 0 wins). Returns false when
  /// fewer than 2*u_n survivors remain (the loop exit).
  bool Partition() {
    const int64_t u_n = options_.u_n;
    const int64_t g = options_.group_size_multiplier * u_n;
    const int64_t n_cur = static_cast<int64_t>(current_.size());
    if (n_cur < 2 * u_n) return false;
    groups_.clear();
    tail_.clear();
    for (int64_t start = 0; start < n_cur; start += g) {
      const int64_t m = std::min(g, n_cur - start);
      auto first = current_.begin() + start;
      if (m <= u_n) {
        tail_.assign(first, first + m);
      } else {
        groups_.emplace_back(first, first + m);
      }
    }
    next_emit_ = 0;
    next_consume_ = 0;
    return true;
  }

  /// Tallies one group's loss matrix and appends its survivors to the
  /// round's pending set: a player stays iff it lost fewer than u_n of its
  /// group's comparisons, i.e. won at least |G| - u_n. An unresolved pair
  /// is missing evidence: it sets no loss for either player (both tally
  /// the win) and the engine re-issues it next round.
  void TallyLosses(const std::vector<ElementId>& group,
                  const LossMatrix& losses) {
    const int64_t k = static_cast<int64_t>(group.size());
    int64_t resolved = 0;
    for (size_t i = 0; i < group.size(); ++i) {
      const int64_t lost = losses.Losses(i);
      resolved += lost;
      if (lost < options_.u_n) round_next_.push_back(group[i]);
      if (!options_.global_loss_counter || lost == 0) continue;
      std::unordered_set<ElementId>& beaten_by = losses_[group[i]];
      const std::span<const uint64_t> row = losses.Row(i);
      for (size_t w = 0; w < row.size(); ++w) {
        for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          beaten_by.insert(group[w * 64 + std::countr_zero(bits)]);
        }
      }
    }
    round_unresolved_ += k * (k - 1) / 2 - resolved;
  }

  /// Survivor selection at the logical-round barrier, identical for both
  /// emission granularities.
  Status FinishLogicalRound() {
    const int64_t u_n = options_.u_n;
    round_next_.insert(round_next_.end(), tail_.begin(), tail_.end());

    if (options_.global_loss_counter) {
      // Evict elements that have lost to more than u_n distinct opponents
      // in total; by Lemma 1 they cannot be the maximum.
      auto cannot_be_max = [&](ElementId e) {
        auto it = losses_.find(e);
        return it != losses_.end() &&
               static_cast<int64_t>(it->second.size()) > u_n;
      };
      const size_t before = round_next_.size();
      round_next_.erase(std::remove_if(round_next_.begin(), round_next_.end(),
                                       cannot_be_max),
                        round_next_.end());
      result_.evicted_by_loss_counter +=
          static_cast<int64_t>(before - round_next_.size());
    }

    // With an underestimated u_n a round can eliminate everyone (no group
    // member reaches |G| - u_n wins). Degrade gracefully: keep the
    // pre-round survivors instead of returning an empty set.
    if (round_next_.empty()) {
      result_.hit_empty_round = true;
      done_ = true;
      return Status::OK();
    }

    if (round_next_.size() >= current_.size()) {
      if (!partial_evidence_ ||
          (round_unresolved_ == 0 && round_fault_.ok())) {
        // Lemma 2 guarantees strict shrinkage while |L_i| >= 2*u_n with
        // full evidence; a violation means a broken answer contract.
        if (!partial_evidence_) {
          CROWDMAX_CHECK(round_next_.size() < current_.size());
        }
        return Status::Internal(
            "batched filter made no progress with full evidence; executor "
            "answers are inconsistent");
      }
      // Faults withheld too much evidence to shrink the pool: stop and
      // report the survivors so far. The conservative tally never evicts
      // without a counted loss, so the maximum is still among them.
      partial_ = true;
      fault_status_ =
          round_fault_.ok()
              ? Status::Unavailable(
                    "filter round made no progress: " +
                    std::to_string(round_unresolved_) +
                    " comparisons unresolved after executor recovery")
              : round_fault_;
      done_ = true;
      return Status::OK();
    }
    current_ = std::move(round_next_);
    round_next_.clear();
    if (static_cast<int64_t>(current_.size()) >= 2 * u_n) {
      recurring_ = current_;
    }
    return Status::OK();
  }

  const FilterOptions options_;
  const bool partial_evidence_;
  const bool group_rounds_;
  std::vector<ElementId> current_;
  std::vector<std::vector<ElementId>> groups_;
  std::vector<ElementId> tail_;
  // Group-granular emission cursors into groups_ (emission may run ahead
  // of consumption while groups are in flight on a pipelined engine).
  size_t next_emit_ = 0;
  size_t next_consume_ = 0;
  // Logical-round accumulators, reset at each round's first consume.
  std::vector<ElementId> round_next_;
  // What the last consume named (RecurringElements): a view of
  // round_next_ or current_, valid until the next call into the source.
  std::span<const ElementId> recurring_;
  int64_t round_unresolved_ = 0;
  Status round_fault_ = Status::OK();
  // losses_[e] = distinct opponents e has lost to, across all rounds
  // (Appendix A, optimization 2). Sets stay small: an element is evicted
  // once its set exceeds u_n.
  std::unordered_map<ElementId, std::unordered_set<ElementId>> losses_;
  FilterResult result_;
  bool partial_ = false;
  Status fault_status_ = Status::OK();
  bool done_ = false;
};

// RunFilterOnEngine after its input check, which every caller makes once.
Result<FilterResult> DriveFilter(const std::vector<ElementId>& items,
                                 const FilterOptions& options,
                                 RoundEngine* engine) {
  // One phase span covers every backend, so serial, parallel and batched
  // runs produce identically-shaped traces.
  TraceSpanScope phase_span("filter", TraceWorkerClass::kNaive);

  FilterRoundSource source(items, options, engine->SupportsPartialEvidence());
  DriveOptions drive_options;
  drive_options.max_comparisons = options.max_comparisons;
  const int64_t paid_before = engine->paid();
  const int64_t steps_before = engine->logical_steps();
  Result<DriveResult> drive = engine->Drive(&source, drive_options);
  if (!drive.ok()) return drive.status();
  return source.Finish(engine->paid() - paid_before,
                       engine->logical_steps() - steps_before);
}

}  // namespace

Result<FilterResult> RunFilterOnEngine(const std::vector<ElementId>& items,
                                       const FilterOptions& options,
                                       RoundEngine* engine) {
  CROWDMAX_CHECK(engine != nullptr);
  if (Status status = ValidateFilterInput(items, options); !status.ok()) {
    return status;
  }
  return DriveFilter(items, options, engine);
}

Result<FilterResult> FilterCandidates(const std::vector<ElementId>& items,
                                      const FilterOptions& options,
                                      Execution naive) {
  if (Status status = ValidateFilterInput(items, options); !status.ok()) {
    return status;
  }
  Result<std::unique_ptr<RoundEngine>> engine =
      naive.Engine(options.memoize, options.shared_cache, options.cache_class,
                   options.threads, options.parallel_seed);
  if (!engine.ok()) return engine.status();
  return DriveFilter(items, options, engine->get());
}

int64_t FilterComparisonUpperBound(int64_t n, int64_t u_n) {
  return 4 * n * u_n;
}

}  // namespace crowdmax
