#include "core/batched.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/metrics.h"
#include "core/checkpoint.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

constexpr uint32_t kExecutorTag = CheckpointTag("EXE ");
constexpr uint32_t kSeederTag = CheckpointTag("SEED");

// Batch-level metrics, recorded in the public wrappers (never per
// comparison, so the comparator hot path stays untouched).
void RecordBatchMetrics(int64_t batch_size) {
  if (!MetricsEnabled()) return;
  static Counter* batches =
      MetricsRegistry::Default()->GetCounter("crowdmax.executor.batches");
  static Counter* dispatched = MetricsRegistry::Default()->GetCounter(
      "crowdmax.executor.comparisons_dispatched");
  static Histogram* sizes = MetricsRegistry::Default()->GetHistogram(
      "crowdmax.executor.batch_size", ExponentialBounds(16));
  batches->Increment();
  dispatched->Add(batch_size);
  sizes->Observe(batch_size);
}

// Trace-cell recording for a sink executor's successful fallible batch:
// every task was dispatched; classify each outcome.
void RecordTraceOutcomes(AlgoTrace* trace,
                         const std::vector<BatchTaskResult>& results) {
  int64_t answered = 0;
  int64_t no_quorum = 0;
  int64_t dropped = 0;
  for (const BatchTaskResult& result : results) {
    if (result.answered) {
      ++answered;
    } else if (result.winner == -1) {
      ++dropped;
    } else {
      ++no_quorum;
    }
  }
  trace->RecordDispatched(static_cast<int64_t>(results.size()));
  trace->RecordOutcomes(answered, no_quorum, dropped);
}

// Every task answered: a comparator-backed batch cannot fault.
std::vector<BatchTaskResult> AllAnswered(
    const std::vector<ElementId>& winners) {
  std::vector<BatchTaskResult> results;
  results.reserve(winners.size());
  for (ElementId winner : winners) {
    results.push_back(BatchTaskResult{winner, true, -1});
  }
  return results;
}

}  // namespace

Result<std::vector<BatchTaskResult>> BatchExecutor::TryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  if (tasks.empty()) return std::vector<BatchTaskResult>{};
  Result<std::vector<BatchTaskResult>> results = DoTryExecuteBatch(tasks);
  if (results.ok()) {
    // A failed submission consumed no crowd work: charge the step and the
    // comparisons only on success, so retry loops account what they buy.
    ++logical_steps_;
    comparisons_ += static_cast<int64_t>(tasks.size());
    RecordBatchMetrics(static_cast<int64_t>(tasks.size()));
    if (AlgoTrace* trace = CurrentTrace();
        trace != nullptr && RecordsTraceCells()) {
      RecordTraceOutcomes(trace, *results);
    }
  }
  return results;
}

Status BatchExecutor::SaveState(CheckpointWriter* writer) const {
  writer->WriteTag(kExecutorTag);
  writer->WriteI64(logical_steps_);
  writer->WriteI64(comparisons_);
  writer->WriteI64(cancelled_comparisons_);
  return DoSaveState(writer);
}

Status BatchExecutor::LoadState(CheckpointReader* reader) {
  reader->ExpectTag(kExecutorTag);
  logical_steps_ = reader->ReadI64();
  comparisons_ = reader->ReadI64();
  cancelled_comparisons_ = reader->ReadI64();
  if (!reader->status().ok()) return reader->status();
  return DoLoadState(reader);
}

Status BatchExecutor::DoSaveState(CheckpointWriter* /*writer*/) const {
  return Status::FailedPrecondition(
      "this executor does not support checkpointing; recover by "
      "deterministic re-execution instead");
}

Status BatchExecutor::DoLoadState(CheckpointReader* /*reader*/) {
  return Status::FailedPrecondition(
      "this executor does not support checkpointing");
}

ComparatorBatchExecutor::ComparatorBatchExecutor(Comparator* comparator)
    : comparator_(comparator) {
  CROWDMAX_CHECK(comparator != nullptr);
}

Result<std::vector<BatchTaskResult>> ComparatorBatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  std::vector<ElementId> winners(tasks.size(), -1);
  if (VoteBatchComparator* batch = comparator_->AsVoteBatch();
      batch != nullptr) {
    // Batch-at-once (DESIGN.md §14): same draws, counters and answers as
    // the per-call loop, one virtual call per batch instead of per task.
    const int64_t produced = batch->GenerateVotes(tasks, winners);
    if (produced < static_cast<int64_t>(tasks.size())) {
      return RefusedPairError(tasks[static_cast<size_t>(produced)]);
    }
    return AllAnswered(winners);
  }
  // Per call, the same refusal at the same task.
  const int64_t limit = comparator_->IdLimit();
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (!PairBelow(tasks[t], limit)) return RefusedPairError(tasks[t]);
    winners[t] = comparator_->Compare(tasks[t].first, tasks[t].second);
  }
  return AllAnswered(winners);
}

Status ComparatorBatchExecutor::DoSaveState(CheckpointWriter* writer) const {
  return comparator_->SaveState(writer);
}

Status ComparatorBatchExecutor::DoLoadState(CheckpointReader* reader) {
  return comparator_->LoadState(reader);
}

ParallelBatchExecutor::ParallelBatchExecutor(Comparator* comparator,
                                             int64_t threads, uint64_t seed,
                                             int64_t chunk_size)
    : comparator_(comparator),
      pool_(threads),
      seeder_(seed),
      chunk_size_(chunk_size) {}

Result<std::unique_ptr<ParallelBatchExecutor>> ParallelBatchExecutor::Create(
    Comparator* comparator, int64_t threads, uint64_t seed,
    int64_t chunk_size) {
  CROWDMAX_CHECK(comparator != nullptr);
  if (threads < 1) return Status::InvalidArgument("threads must be >= 1");
  if (chunk_size < 1) {
    return Status::InvalidArgument("chunk_size must be >= 1");
  }
  if (comparator->Fork(0) == nullptr) {
    return Status::InvalidArgument(
        "comparator does not support Fork(); ParallelBatchExecutor requires "
        "a forkable comparator");
  }
  return std::unique_ptr<ParallelBatchExecutor>(
      new ParallelBatchExecutor(comparator, threads, seed, chunk_size));
}

Result<std::vector<BatchTaskResult>> ParallelBatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  const int64_t n = static_cast<int64_t>(tasks.size());
  const int64_t num_chunks = (n + chunk_size_ - 1) / chunk_size_;
  std::vector<BatchTaskResult> results(tasks.size());

  // Chunk seeds are drawn before dispatch, in chunk order, so answers are
  // independent of which thread runs which chunk.
  std::vector<uint64_t> seeds(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    seeds[static_cast<size_t>(c)] = seeder_.Fork();
  }

  std::vector<int64_t> paid(static_cast<size_t>(num_chunks), 0);
  // Per chunk, the task its fork refused, or -1.
  std::vector<int64_t> refused(static_cast<size_t>(num_chunks), -1);
  pool_.ParallelFor(num_chunks, [&](int64_t c) {
    const std::unique_ptr<Comparator> fork =
        comparator_->Fork(seeds[static_cast<size_t>(c)]);
    CROWDMAX_CHECK(fork != nullptr);
    const int64_t begin = c * chunk_size_;
    const int64_t end = std::min(n, begin + chunk_size_);
    const size_t count = static_cast<size_t>(end - begin);
    // Each chunk writes its answers into its own slots of `results`, so
    // the packing runs on the pool too.
    BatchTaskResult* out = results.data() + begin;
    if (VoteBatchComparator* batch = fork->AsVoteBatch(); batch != nullptr) {
      // Whole chunk in one call — same seeds, same draws.
      std::vector<ElementId> winners(count);
      const int64_t produced = batch->GenerateVotes(
          std::span<const ComparisonPair>(tasks).subspan(
              static_cast<size_t>(begin), count),
          winners);
      for (int64_t t = 0; t < produced; ++t) {
        out[t] = {winners[static_cast<size_t>(t)], true, -1};
      }
      if (produced < static_cast<int64_t>(count)) {
        refused[static_cast<size_t>(c)] = begin + produced;
      }
    } else {
      const int64_t limit = fork->IdLimit();
      for (int64_t t = begin; t < end; ++t) {
        const ComparisonPair& task = tasks[static_cast<size_t>(t)];
        if (!PairBelow(task, limit)) {
          refused[static_cast<size_t>(c)] = t;
          break;
        }
        out[t - begin] = {fork->Compare(task.first, task.second), true, -1};
      }
    }
    paid[static_cast<size_t>(c)] = fork->num_comparisons();
  });

  int64_t total_paid = 0;
  for (int64_t p : paid) total_paid += p;
  comparator_->AddComparisons(total_paid);
  for (int64_t task : refused) {
    if (task >= 0) return RefusedPairError(tasks[static_cast<size_t>(task)]);
  }
  return results;
}

Status ParallelBatchExecutor::DoSaveState(CheckpointWriter* writer) const {
  writer->WriteTag(kSeederTag);
  writer->WriteRngState(seeder_.state());
  return comparator_->SaveState(writer);
}

Status ParallelBatchExecutor::DoLoadState(CheckpointReader* reader) {
  reader->ExpectTag(kSeederTag);
  seeder_.set_state(reader->ReadRngState());
  if (!reader->status().ok()) return reader->status();
  return comparator_->LoadState(reader);
}

}  // namespace crowdmax
