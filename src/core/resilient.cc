#include "core/resilient.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "core/checkpoint.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

constexpr uint32_t kReportTag = CheckpointTag("RPRT");
constexpr uint32_t kInjectTag = CheckpointTag("INJC");

void CountRecovery(const char* name, int64_t n) {
  if (!MetricsEnabled() || n == 0) return;
  MetricsRegistry::Default()->GetCounter(name)->Add(n);
}

}  // namespace

ElementId SmallerIdFallback(ElementId a, ElementId b) {
  return a < b ? a : b;
}

ResilientBatchExecutor::ResilientBatchExecutor(BatchExecutor* inner,
                                               const ResilientOptions& options)
    : inner_(inner), options_(options) {}

Result<std::unique_ptr<ResilientBatchExecutor>> ResilientBatchExecutor::Create(
    BatchExecutor* inner, const ResilientOptions& options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("inner executor must not be null");
  }
  if (options.max_retries < 0) {
    return Status::InvalidArgument("max_retries must be >= 0");
  }
  if (options.min_votes < 1) {
    return Status::InvalidArgument("min_votes must be >= 1");
  }
  if (options.backoff_base_steps < 0) {
    return Status::InvalidArgument("backoff_base_steps must be >= 0");
  }
  return std::unique_ptr<ResilientBatchExecutor>(
      new ResilientBatchExecutor(inner, options));
}

void ResilientBatchExecutor::ResetCounters() {
  BatchExecutor::ResetCounters();
  report_ = FaultReport();
}

int64_t ResilientBatchExecutor::TakeSimulatedLatencyMicros() {
  return inner_->TakeSimulatedLatencyMicros();
}

Status ResilientBatchExecutor::DoSaveState(CheckpointWriter* writer) const {
  writer->WriteTag(kReportTag);
  writer->WriteI64(report_.batches);
  writer->WriteI64(report_.attempts);
  writer->WriteI64(report_.retried_tasks);
  writer->WriteI64(report_.votes_lost);
  writer->WriteI64(report_.relaxed_accepts);
  writer->WriteI64(report_.degraded_tasks);
  writer->WriteI64(report_.transient_errors);
  writer->WriteI64(report_.steps_added);
  writer->WriteI64(report_.backoff_steps);
  writer->WriteBool(report_.exhausted);
  writer->WriteStatus(report_.last_error);
  return inner_->SaveState(writer);
}

Status ResilientBatchExecutor::DoLoadState(CheckpointReader* reader) {
  reader->ExpectTag(kReportTag);
  report_.batches = reader->ReadI64();
  report_.attempts = reader->ReadI64();
  report_.retried_tasks = reader->ReadI64();
  report_.votes_lost = reader->ReadI64();
  report_.relaxed_accepts = reader->ReadI64();
  report_.degraded_tasks = reader->ReadI64();
  report_.transient_errors = reader->ReadI64();
  report_.steps_added = reader->ReadI64();
  report_.backoff_steps = reader->ReadI64();
  report_.exhausted = reader->ReadBool();
  report_.last_error = reader->ReadStatus();
  if (!reader->status().ok()) return reader->status();
  return inner_->LoadState(reader);
}

Result<std::vector<BatchTaskResult>> ResilientBatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  ++report_.batches;
  const int64_t inner_steps_before = inner_->logical_steps();
  int64_t backoff_this_batch = 0;
  // True crowd spend of this batch: every task of every successful inner
  // attempt (the inner wrapper charges nothing on a failed submission).
  int64_t dispatched_this_batch = 0;

  // Settles this batch's accounting on every exit path. The base wrapper
  // charges tasks.size() comparisons and one step only when we return OK,
  // so the correction differs between success and failure: on success the
  // nominal charge is replaced by the true spend (the delta may be
  // negative, e.g. when every attempt failed and a fallback resolved the
  // batch for free); on failure the true spend is charged outright, and
  // every inner step is extra latency since no caller step was accounted.
  auto settle_accounting = [&](bool success) {
    report_.backoff_steps += backoff_this_batch;
    const int64_t inner_steps = inner_->logical_steps() - inner_steps_before;
    report_.steps_added +=
        std::max<int64_t>(0, inner_steps - (success ? 1 : 0)) +
        backoff_this_batch;
    ChargeExtraComparisons(
        dispatched_this_batch -
        (success ? static_cast<int64_t>(tasks.size()) : 0));
  };

  std::vector<BatchTaskResult> resolved(tasks.size());
  std::vector<size_t> pending(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) pending[i] = i;

  for (int64_t attempt = 0;; ++attempt) {
    std::vector<ComparisonPair> subset;
    subset.reserve(pending.size());
    for (size_t idx : pending) subset.push_back(tasks[idx]);

    ++report_.attempts;
    TraceSpanScope attempt_span(TraceSpanKind::kAttempt,
                                std::to_string(attempt));
    Result<std::vector<BatchTaskResult>> outcome =
        inner_->TryExecuteBatch(subset);
    if (!outcome.ok()) {
      if (outcome.status().code() != StatusCode::kUnavailable) {
        // Non-transient failure (contract violation, bad arguments):
        // retrying cannot help, surface it unchanged.
        settle_accounting(/*success=*/false);
        return outcome.status();
      }
      ++report_.transient_errors;
      CountRecovery("crowdmax.resilient.transient_errors", 1);
      report_.last_error = outcome.status();
    } else {
      dispatched_this_batch += static_cast<int64_t>(subset.size());
      CROWDMAX_CHECK(outcome->size() == pending.size());
      std::vector<size_t> still_pending;
      for (size_t i = 0; i < pending.size(); ++i) {
        const size_t idx = pending[i];
        BatchTaskResult result = (*outcome)[i];
        if (result.answered) {
          resolved[idx] = result;
          continue;
        }
        if (result.winner != -1 && result.counted_votes >= options_.min_votes) {
          // Relaxed quorum: a provisional majority backed by enough votes
          // is accepted rather than re-bought.
          result.answered = true;
          resolved[idx] = result;
          ++report_.relaxed_accepts;
          continue;
        }
        ++report_.votes_lost;
        still_pending.push_back(idx);
      }
      pending = std::move(still_pending);
      if (pending.empty()) break;
    }

    if (attempt >= options_.max_retries) break;
    report_.retried_tasks += static_cast<int64_t>(pending.size());
    CountRecovery("crowdmax.resilient.retried_tasks",
                  static_cast<int64_t>(pending.size()));
    if (AlgoTrace* trace = CurrentTrace(); trace != nullptr) {
      trace->RecordRetries(static_cast<int64_t>(pending.size()));
    }
    if (options_.backoff_base_steps > 0) {
      backoff_this_batch +=
          options_.backoff_base_steps << std::min<int64_t>(attempt, 30);
    }
  }

  if (!pending.empty()) {
    if (options_.fallback) {
      for (size_t idx : pending) {
        BatchTaskResult degraded;
        degraded.winner =
            options_.fallback(tasks[idx].first, tasks[idx].second);
        CROWDMAX_CHECK(degraded.winner == tasks[idx].first ||
                       degraded.winner == tasks[idx].second);
        degraded.answered = true;
        degraded.counted_votes = 0;
        resolved[idx] = degraded;
        ++report_.degraded_tasks;
      }
      CountRecovery("crowdmax.resilient.degraded_tasks",
                    static_cast<int64_t>(pending.size()));
      if (AlgoTrace* trace = CurrentTrace(); trace != nullptr) {
        trace->RecordDegraded(static_cast<int64_t>(pending.size()));
      }
    } else {
      report_.exhausted = true;
      report_.last_error = Status::Unavailable(
          "retry budget exhausted: " + std::to_string(pending.size()) +
          " of " + std::to_string(tasks.size()) +
          " tasks unresolved after " +
          std::to_string(options_.max_retries + 1) + " attempts");
      settle_accounting(/*success=*/false);
      return report_.last_error;
    }
  }
  settle_accounting(/*success=*/true);
  return resolved;
}

FaultInjectingBatchExecutor::FaultInjectingBatchExecutor(
    BatchExecutor* inner, const InjectedFaultOptions& options)
    : inner_(inner), options_(options), rng_(options.seed) {}

int64_t FaultInjectingBatchExecutor::TakeSimulatedLatencyMicros() {
  return inner_->TakeSimulatedLatencyMicros();
}

Status FaultInjectingBatchExecutor::DoSaveState(
    CheckpointWriter* writer) const {
  writer->WriteTag(kInjectTag);
  writer->WriteRngState(rng_.state());
  writer->WriteI64(injected_drops_);
  writer->WriteI64(injected_no_quorums_);
  writer->WriteI64(injected_unavailable_);
  return inner_->SaveState(writer);
}

Status FaultInjectingBatchExecutor::DoLoadState(CheckpointReader* reader) {
  reader->ExpectTag(kInjectTag);
  rng_.set_state(reader->ReadRngState());
  injected_drops_ = reader->ReadI64();
  injected_no_quorums_ = reader->ReadI64();
  injected_unavailable_ = reader->ReadI64();
  if (!reader->status().ok()) return reader->status();
  return inner_->LoadState(reader);
}

Result<std::unique_ptr<FaultInjectingBatchExecutor>>
FaultInjectingBatchExecutor::Create(BatchExecutor* inner,
                                    const InjectedFaultOptions& options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("inner executor must not be null");
  }
  for (double p : {options.drop_probability, options.no_quorum_probability,
                   options.unavailable_probability}) {
    if (p < 0.0 || p >= 1.0) {
      return Status::InvalidArgument(
          "fault probabilities must be in [0, 1)");
    }
  }
  if (options.votes_per_task < 1) {
    return Status::InvalidArgument("votes_per_task must be >= 1");
  }
  if (options.partial_votes < 1) {
    return Status::InvalidArgument("partial_votes must be >= 1");
  }
  return std::unique_ptr<FaultInjectingBatchExecutor>(
      new FaultInjectingBatchExecutor(inner, options));
}

Result<std::vector<BatchTaskResult>>
FaultInjectingBatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  if (options_.unavailable_probability > 0.0 &&
      rng_.NextBernoulli(options_.unavailable_probability)) {
    ++injected_unavailable_;
    CountRecovery("crowdmax.fault.injected_unavailable", 1);
    return Status::Unavailable("injected transient executor fault");
  }

  // Draw each task's fate serially, in submission order, before touching
  // the inner executor: the pattern is schedule-independent.
  enum class Fate { kHealthy, kDropped, kNoQuorum };
  std::vector<Fate> fates(tasks.size(), Fate::kHealthy);
  std::vector<ComparisonPair> forwarded;
  forwarded.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (options_.drop_probability > 0.0 &&
        rng_.NextBernoulli(options_.drop_probability)) {
      fates[i] = Fate::kDropped;
      ++injected_drops_;
      continue;  // The work never happened; nothing to forward.
    }
    if (options_.no_quorum_probability > 0.0 &&
        rng_.NextBernoulli(options_.no_quorum_probability)) {
      fates[i] = Fate::kNoQuorum;
      ++injected_no_quorums_;
    }
    forwarded.push_back(tasks[i]);
  }

  Result<std::vector<BatchTaskResult>> inner_results =
      inner_->TryExecuteBatch(forwarded);
  if (!inner_results.ok()) return inner_results.status();
  CROWDMAX_CHECK(inner_results->size() == forwarded.size());

  int64_t dropped_here = 0;
  int64_t demoted_here = 0;
  std::vector<BatchTaskResult> results(tasks.size());
  size_t next_forwarded = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (fates[i] == Fate::kDropped) {
      results[i] = BatchTaskResult{-1, false, 0};
      ++dropped_here;
      continue;
    }
    BatchTaskResult result = (*inner_results)[next_forwarded++];
    if (fates[i] == Fate::kNoQuorum) {
      // Demote the inner answer to a no-quorum partial.
      if (result.answered) ++demoted_here;
      result.answered = false;
      result.counted_votes = options_.partial_votes;
    } else if (result.answered && result.counted_votes < 0) {
      result.counted_votes = options_.votes_per_task;
    }
    results[i] = result;
  }
  CountRecovery("crowdmax.fault.injected_drops", dropped_here);
  CountRecovery("crowdmax.fault.injected_no_quorums", demoted_here);
  if (AlgoTrace* trace = CurrentTrace(); trace != nullptr) {
    // This decorator is the dispatch point for the faults it models: a
    // dropped task never reached the inner executor (record it dispatched
    // and dropped here), and a demoted task was recorded answered by the
    // inner sink although the modeled crowd returned no quorum (reclassify
    // it, keeping the cell's dispatched = answered + no_quorum + dropped
    // identity intact).
    if (dropped_here > 0) {
      trace->RecordDispatched(dropped_here);
      trace->RecordOutcomes(0, 0, dropped_here);
    }
    if (demoted_here > 0) trace->RecordOutcomes(-demoted_here, demoted_here, 0);
  }
  return results;
}

}  // namespace crowdmax
