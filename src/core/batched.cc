#include "core/batched.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/metrics.h"
#include "core/async_executor.h"
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

// Every task answered: the fallible result of an infallible batch.
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

std::string FaultReport::ToString() const {
  std::string out = "batches=" + std::to_string(batches) +
                    " attempts=" + std::to_string(attempts) +
                    " retried_tasks=" + std::to_string(retried_tasks) +
                    " votes_lost=" + std::to_string(votes_lost) +
                    " relaxed_accepts=" + std::to_string(relaxed_accepts) +
                    " degraded_tasks=" + std::to_string(degraded_tasks) +
                    " transient_errors=" + std::to_string(transient_errors) +
                    " steps_added=" + std::to_string(steps_added) +
                    " backoff_steps=" + std::to_string(backoff_steps);
  if (exhausted) out += " exhausted(" + last_error.ToString() + ")";
  return out;
}

std::vector<ElementId> BatchExecutor::ExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  if (tasks.empty()) return {};
  ++logical_steps_;
  comparisons_ += static_cast<int64_t>(tasks.size());
  RecordBatchMetrics(static_cast<int64_t>(tasks.size()));
  std::vector<ElementId> winners = DoExecuteBatch(tasks);
  if (AlgoTrace* trace = CurrentTrace();
      trace != nullptr && RecordsTraceCells()) {
    // The infallible path answers everything: one cell record per batch,
    // on the submitting thread (the coordinating thread at a barrier).
    trace->RecordDispatched(static_cast<int64_t>(tasks.size()));
    trace->RecordOutcomes(static_cast<int64_t>(tasks.size()), 0, 0);
  }
  return winners;
}

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

Result<std::vector<BatchTaskResult>> BatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  // Default adapter: the infallible path answers everything.
  const std::vector<ElementId> winners = DoExecuteBatch(tasks);
  CROWDMAX_CHECK(winners.size() == tasks.size());
  return AllAnswered(winners);
}

ComparatorBatchExecutor::ComparatorBatchExecutor(Comparator* comparator)
    : comparator_(comparator) {
  CROWDMAX_CHECK(comparator != nullptr);
}

Result<std::vector<ElementId>> ComparatorBatchExecutor::Answer(
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
    return winners;
  }
  for (size_t t = 0; t < tasks.size(); ++t) {
    winners[t] = comparator_->Compare(tasks[t].first, tasks[t].second);
  }
  return winners;
}

std::vector<ElementId> ComparatorBatchExecutor::DoExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  Result<std::vector<ElementId>> winners = Answer(tasks);
  CROWDMAX_CHECK(winners.ok());
  return std::move(winners).value();
}

Result<std::vector<BatchTaskResult>> ComparatorBatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  Result<std::vector<ElementId>> winners = Answer(tasks);
  if (!winners.ok()) return winners.status();
  return AllAnswered(*winners);
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

Result<std::vector<ElementId>> ParallelBatchExecutor::Answer(
    const std::vector<ComparisonPair>& tasks) {
  const int64_t n = static_cast<int64_t>(tasks.size());
  const int64_t num_chunks = (n + chunk_size_ - 1) / chunk_size_;
  std::vector<ElementId> winners(tasks.size(), -1);

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
    if (VoteBatchComparator* batch = fork->AsVoteBatch(); batch != nullptr) {
      // Whole chunk in one call, on span slices of the shared arrays —
      // same seeds, same draws, same disjoint output slots.
      const int64_t produced = batch->GenerateVotes(
          std::span<const ComparisonPair>(tasks).subspan(
              static_cast<size_t>(begin), count),
          std::span<ElementId>(winners).subspan(static_cast<size_t>(begin),
                                                count));
      if (produced < static_cast<int64_t>(count)) {
        refused[static_cast<size_t>(c)] = begin + produced;
      }
    } else {
      for (int64_t t = begin; t < end; ++t) {
        const ComparisonPair& task = tasks[static_cast<size_t>(t)];
        winners[static_cast<size_t>(t)] =
            fork->Compare(task.first, task.second);
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
  return winners;
}

std::vector<ElementId> ParallelBatchExecutor::DoExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  Result<std::vector<ElementId>> winners = Answer(tasks);
  CROWDMAX_CHECK(winners.ok());
  return std::move(winners).value();
}

Result<std::vector<BatchTaskResult>> ParallelBatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  Result<std::vector<ElementId>> winners = Answer(tasks);
  if (!winners.ok()) return winners.status();
  return AllAnswered(*winners);
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

// ---------------------------------------------------------------------------
// Batched adapters. Every function below is a thin shell: create an
// executor-backed RoundEngine, drive the shared RoundSource, translate the
// engine run into the Batched* result shape. The round loops, caches,
// budget gates and fault semantics all live in core/round_engine.cc and
// the sources in filter_phase.cc / maxfind.cc / tournament.cc.
// ---------------------------------------------------------------------------

Result<BatchedFilterResult> BatchedFilterCandidates(
    const std::vector<ElementId>& items, const FilterOptions& options,
    BatchExecutor* executor) {
  CROWDMAX_CHECK(executor != nullptr);
  Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreateBatched(
      executor, options.shared_cache, options.cache_class);
  if (!engine.ok()) return engine.status();

  Result<FilterEngineRun> run =
      RunFilterOnEngine(items, options, engine->get());
  if (!run.ok()) return run.status();

  BatchedFilterResult out;
  out.filter = std::move(run->filter);
  out.partial = run->partial;
  out.fault_status = run->fault_status;
  out.logical_steps = (*engine)->logical_steps();
  return out;
}

Result<BatchedFilterResult> PipelinedFilterCandidates(
    const std::vector<ElementId>& items, const FilterOptions& options,
    AsyncBatchExecutor* async, const BatchedPipelineOptions& pipeline) {
  CROWDMAX_CHECK(async != nullptr);
  SharedPairCache* cache = pipeline.shared_cache != nullptr
                               ? pipeline.shared_cache
                               : options.shared_cache;
  const int64_t cache_class = pipeline.shared_cache != nullptr
                                  ? pipeline.cache_class
                                  : options.cache_class;
  Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreatePipelined(
      async, pipeline.max_in_flight, cache, cache_class);
  if (!engine.ok()) return engine.status();

  Result<FilterEngineRun> run =
      RunFilterOnEngine(items, options, engine->get());
  if (!run.ok()) return run.status();

  BatchedFilterResult out;
  out.filter = std::move(run->filter);
  out.partial = run->partial;
  out.fault_status = run->fault_status;
  out.logical_steps = (*engine)->logical_steps();
  return out;
}

Result<BatchedMaxFindResult> BatchedTwoMaxFind(
    const std::vector<ElementId>& items, BatchExecutor* executor,
    SharedPairCache* shared_cache, int64_t cache_class) {
  CROWDMAX_CHECK(executor != nullptr);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreateBatched(executor, shared_cache, cache_class);
  if (!engine.ok()) return engine.status();

  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  Result<MaxFindEngineRun> run = RunTwoMaxFindOnEngine(items, engine->get());
  if (!run.ok()) return run.status();

  BatchedMaxFindResult out;
  out.maxfind = run->maxfind;
  out.partial = run->partial;
  out.fault_status = run->fault_status;
  out.survivors = std::move(run->survivors);
  out.logical_steps = (*engine)->logical_steps();
  return out;
}

Result<BatchedMaxFindResult> PipelinedTwoMaxFind(
    const std::vector<ElementId>& items, AsyncBatchExecutor* async,
    const BatchedPipelineOptions& pipeline,
    const TwoMaxFindEngineOptions& engine_options,
    SharedPairCache* shared_cache, int64_t cache_class) {
  CROWDMAX_CHECK(async != nullptr);
  SharedPairCache* cache = pipeline.shared_cache != nullptr
                               ? pipeline.shared_cache
                               : shared_cache;
  const int64_t klass = pipeline.shared_cache != nullptr ? pipeline.cache_class
                                                         : cache_class;
  Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreatePipelined(
      async, pipeline.max_in_flight, cache, klass);
  if (!engine.ok()) return engine.status();

  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  Result<MaxFindEngineRun> run =
      RunTwoMaxFindOnEngine(items, engine->get(), engine_options);
  if (!run.ok()) return run.status();

  BatchedMaxFindResult out;
  out.maxfind = run->maxfind;
  out.partial = run->partial;
  out.fault_status = run->fault_status;
  out.survivors = std::move(run->survivors);
  out.logical_steps = (*engine)->logical_steps();
  return out;
}

Result<BatchedExpertMaxResult> BatchedFindMaxWithExperts(
    const std::vector<ElementId>& items, BatchExecutor* naive,
    BatchExecutor* expert, const ExpertMaxOptions& options) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  TraceSpanScope run_span(TraceSpanKind::kRun, "batched_expert_max");

  FilterOptions filter_options = options.filter;
  if (options.shared_cache != nullptr) {
    filter_options.shared_cache = options.shared_cache;
    filter_options.cache_class = options.naive_cache_class;
  }
  Result<BatchedFilterResult> filtered =
      BatchedFilterCandidates(items, filter_options, naive);
  if (!filtered.ok()) return filtered.status();

  BatchedExpertMaxResult out;
  out.result.candidates = std::move(filtered->filter.candidates);
  out.result.paid.naive = filtered->filter.paid_comparisons;
  out.result.issued.naive = filtered->filter.issued_comparisons;
  out.result.filter_rounds = filtered->filter.rounds;
  out.result.filter_hit_empty_round = filtered->filter.hit_empty_round;
  out.result.filter_stopped_by_budget = filtered->filter.stopped_by_budget;
  out.naive_steps = filtered->logical_steps;
  if (filtered->partial) {
    out.partial = true;
    out.fault_status = filtered->fault_status;
  }
  if (const FaultReport* report = naive->fault_report()) {
    out.has_naive_faults = true;
    out.naive_faults = *report;
  }
  if (out.result.candidates.empty()) {
    return Status::Internal("phase 1 returned an empty candidate set");
  }

  // Phase 2 runs even on a partial phase 1: the conservative filter never
  // evicts without a counted loss, so the maximum is still among the
  // (possibly oversized) survivor set and the experts can finish the job.
  Result<BatchedMaxFindResult> phase2 = BatchedTwoMaxFind(
      out.result.candidates, expert, options.shared_cache,
      options.expert_cache_class);
  if (!phase2.ok()) return phase2.status();

  out.result.best = phase2->maxfind.best;
  out.result.paid.expert = phase2->maxfind.paid_comparisons;
  out.result.issued.expert = phase2->maxfind.issued_comparisons;
  out.result.phase2_rounds = phase2->maxfind.rounds;
  out.expert_steps = phase2->logical_steps;
  if (phase2->partial) {
    out.partial = true;
    if (out.fault_status.ok()) out.fault_status = phase2->fault_status;
  }
  if (const FaultReport* report = expert->fault_report()) {
    out.has_expert_faults = true;
    out.expert_faults = *report;
  }
  return out;
}

Result<BatchedTopKResult> BatchedFindTopKWithExperts(
    const std::vector<ElementId>& items, BatchExecutor* naive,
    BatchExecutor* expert, const TopKOptions& options) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  if (options.k < 1 || options.k > static_cast<int64_t>(items.size())) {
    return Status::InvalidArgument("k must be in [1, |items|]");
  }
  if (options.filter.u_n < 1) {
    return Status::InvalidArgument("u_n must be >= 1");
  }
  TraceSpanScope run_span(TraceSpanKind::kRun, "batched_topk");

  // Phase 1 with the inflated blind spot u' = u_n + k - 1 so every true
  // top-k element survives (see core/topk.h).
  FilterOptions filter = options.filter;
  filter.u_n = options.filter.u_n + options.k - 1;
  if (options.shared_cache != nullptr) {
    filter.shared_cache = options.shared_cache;
    filter.cache_class = options.naive_cache_class;
  }
  Result<BatchedFilterResult> filtered =
      BatchedFilterCandidates(items, filter, naive);
  if (!filtered.ok()) return filtered.status();

  BatchedTopKResult out;
  out.result.candidates = std::move(filtered->filter.candidates);
  out.result.paid.naive = filtered->filter.paid_comparisons;
  out.result.filter_rounds = filtered->filter.rounds;
  out.naive_steps = filtered->logical_steps;
  if (filtered->partial) {
    out.partial = true;
    out.fault_status = filtered->fault_status;
  }
  if (const FaultReport* report = naive->fault_report()) {
    out.has_naive_faults = true;
    out.naive_faults = *report;
  }
  if (static_cast<int64_t>(out.result.candidates.size()) < options.k) {
    return Status::Internal(
        "phase 1 returned fewer candidates than k; the comparator violated "
        "the threshold-model contract");
  }

  // Phase 2: one expert all-play-all batch over the candidates; the k
  // biggest winners in win order. A partial filter only enlarges the
  // candidate set, so the tournament still ranks the true top-k. Against a
  // shared cache, pairs an earlier expert-class run already resolved are
  // answered for free.
  Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreateBatched(
      expert, options.shared_cache, options.expert_cache_class);
  if (!engine.ok()) return engine.status();
  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  Result<TournamentEngineRun> tournament = RunTournamentOnEngine(
      out.result.candidates, engine->get(), "all_play_all",
      TournamentEngineOptions{options.expert_chunk_pairs});
  if (!tournament.ok()) return tournament.status();

  // Mispredicted speculative spend stays on the engine's wasted counter,
  // never in the per-class paid totals (DESIGN.md §15).
  out.result.paid.expert = (*engine)->paid() - (*engine)->speculation_wasted();
  out.expert_steps = (*engine)->logical_steps();
  if (tournament->unresolved > 0 || !tournament->fault.ok()) {
    out.partial = true;
    if (out.fault_status.ok()) {
      out.fault_status =
          tournament->fault.ok()
              ? Status::Unavailable(
                    "expert tournament left " +
                    std::to_string(tournament->unresolved) +
                    " comparisons unresolved; the order is provisional")
              : tournament->fault;
    }
  }
  if (const FaultReport* report = expert->fault_report()) {
    out.has_expert_faults = true;
    out.expert_faults = *report;
  }

  std::vector<ElementId> ranked =
      OrderByWins(out.result.candidates, tournament->tournament);
  ranked.resize(static_cast<size_t>(options.k));
  out.result.top = std::move(ranked);
  return out;
}

Result<BatchedMultilevelResult> BatchedFindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<BatchedWorkerClassSpec>& classes,
    const MultilevelOptions& options) {
  if (classes.empty()) {
    return Status::InvalidArgument("at least one worker class is required");
  }
  for (const BatchedWorkerClassSpec& spec : classes) {
    if (spec.executor == nullptr) {
      return Status::InvalidArgument("worker class has null executor");
    }
    if (spec.cost_per_comparison < 0.0) {
      return Status::InvalidArgument("cost_per_comparison must be >= 0");
    }
  }
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  TraceSpanScope run_span(TraceSpanKind::kRun, "batched_multilevel");

  BatchedMultilevelResult out;
  out.result.paid_per_class.assign(classes.size(), 0);
  out.steps_per_class.assign(classes.size(), 0);

  std::vector<ElementId> current = items;

  // Filtering levels: every class except the last. A partial level hands
  // its (oversized but max-preserving) survivor set to the next class.
  for (size_t level = 0; level + 1 < classes.size(); ++level) {
    const BatchedWorkerClassSpec& spec = classes[level];
    if (spec.u < 1) {
      return Status::InvalidArgument("worker class u must be >= 1");
    }
    FilterOptions filter = options.filter_template;
    filter.u_n = spec.u;
    if (options.shared_cache != nullptr) {
      filter.shared_cache = options.shared_cache;
      filter.cache_class = static_cast<int64_t>(level);
    }
    Result<BatchedFilterResult> filtered =
        BatchedFilterCandidates(current, filter, spec.executor);
    if (!filtered.ok()) return filtered.status();
    out.result.paid_per_class[level] = filtered->filter.paid_comparisons;
    out.steps_per_class[level] = filtered->logical_steps;
    out.result.candidates_per_level.push_back(
        static_cast<int64_t>(filtered->filter.candidates.size()));
    if (filtered->partial) {
      out.partial = true;
      if (out.fault_status.ok()) out.fault_status = filtered->fault_status;
    }
    current = std::move(filtered->filter.candidates);
    if (current.empty()) {
      return Status::Internal("filter level returned an empty candidate set");
    }
  }

  // Final level: phase-2 max-finding with the most expert class's
  // executor, through the same engine.
  const size_t last = classes.size() - 1;
  BatchExecutor* final_executor = classes[last].executor;
  Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreateBatched(
      final_executor, options.shared_cache, static_cast<int64_t>(last));
  if (!engine.ok()) return engine.status();
  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  switch (options.final_phase) {
    case Phase2Algorithm::kTwoMaxFind: {
      Result<MaxFindEngineRun> run = RunTwoMaxFindOnEngine(
          current, engine->get(),
          TwoMaxFindEngineOptions{options.final_speculate});
      if (!run.ok()) return run.status();
      out.result.best = run->maxfind.best;
      if (run->partial) {
        out.partial = true;
        if (out.fault_status.ok()) out.fault_status = run->fault_status;
      }
      break;
    }
    case Phase2Algorithm::kRandomized: {
      Result<MaxFindEngineRun> run =
          RunRandomizedMaxFindOnEngine(current, engine->get(),
                                       options.randomized);
      if (!run.ok()) return run.status();
      out.result.best = run->maxfind.best;
      if (run->partial) {
        out.partial = true;
        if (out.fault_status.ok()) out.fault_status = run->fault_status;
      }
      break;
    }
    case Phase2Algorithm::kAllPlayAll: {
      Result<TournamentEngineRun> run = RunTournamentOnEngine(
          current, engine->get(), "all_play_all",
          TournamentEngineOptions{options.final_chunk_pairs});
      if (!run.ok()) return run.status();
      out.result.best = current[IndexOfMostWins(run->tournament)];
      if (run->unresolved > 0 || !run->fault.ok()) {
        out.partial = true;
        if (out.fault_status.ok()) {
          out.fault_status =
              run->fault.ok()
                  ? Status::Unavailable(
                        "final tournament left " +
                        std::to_string(run->unresolved) +
                        " comparisons unresolved; best is provisional")
                  : run->fault;
        }
      }
      break;
    }
  }
  out.result.paid_per_class[last] =
      (*engine)->paid() - (*engine)->speculation_wasted();
  out.steps_per_class[last] = (*engine)->logical_steps();

  for (size_t i = 0; i < classes.size(); ++i) {
    out.result.total_cost +=
        static_cast<double>(out.result.paid_per_class[i]) *
        classes[i].cost_per_comparison;
  }
  return out;
}

Result<BatchedTopKResult> PipelinedFindTopKWithExperts(
    const std::vector<ElementId>& items, AsyncBatchExecutor* naive,
    AsyncBatchExecutor* expert, const TopKOptions& options,
    const BatchedPipelineOptions& pipeline) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  if (options.k < 1 || options.k > static_cast<int64_t>(items.size())) {
    return Status::InvalidArgument("k must be in [1, |items|]");
  }
  if (options.filter.u_n < 1) {
    return Status::InvalidArgument("u_n must be >= 1");
  }
  // Same run-span label as the batched path: the pipelined drive is
  // bit-identical to it, traces included.
  TraceSpanScope run_span(TraceSpanKind::kRun, "batched_topk");

  FilterOptions filter = options.filter;
  filter.u_n = options.filter.u_n + options.k - 1;
  if (options.shared_cache != nullptr) {
    filter.shared_cache = options.shared_cache;
    filter.cache_class = options.naive_cache_class;
  }
  // The per-class cache wiring lives in `options`; a pipeline-level
  // override would force both classes into one cache class.
  BatchedPipelineOptions phase_pipeline = pipeline;
  phase_pipeline.shared_cache = nullptr;
  Result<BatchedFilterResult> filtered =
      PipelinedFilterCandidates(items, filter, naive, phase_pipeline);
  if (!filtered.ok()) return filtered.status();

  BatchedTopKResult out;
  out.result.candidates = std::move(filtered->filter.candidates);
  out.result.paid.naive = filtered->filter.paid_comparisons;
  out.result.filter_rounds = filtered->filter.rounds;
  out.naive_steps = filtered->logical_steps;
  if (filtered->partial) {
    out.partial = true;
    out.fault_status = filtered->fault_status;
  }
  if (const FaultReport* report = naive->inner()->fault_report()) {
    out.has_naive_faults = true;
    out.naive_faults = *report;
  }
  if (static_cast<int64_t>(out.result.candidates.size()) < options.k) {
    return Status::Internal(
        "phase 1 returned fewer candidates than k; the comparator violated "
        "the threshold-model contract");
  }

  Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreatePipelined(
      expert, pipeline.max_in_flight, options.shared_cache,
      options.expert_cache_class);
  if (!engine.ok()) return engine.status();
  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  Result<TournamentEngineRun> tournament = RunTournamentOnEngine(
      out.result.candidates, engine->get(), "all_play_all",
      TournamentEngineOptions{options.expert_chunk_pairs});
  if (!tournament.ok()) return tournament.status();

  out.result.paid.expert = (*engine)->paid() - (*engine)->speculation_wasted();
  out.expert_steps = (*engine)->logical_steps();
  if (tournament->unresolved > 0 || !tournament->fault.ok()) {
    out.partial = true;
    if (out.fault_status.ok()) {
      out.fault_status =
          tournament->fault.ok()
              ? Status::Unavailable(
                    "expert tournament left " +
                    std::to_string(tournament->unresolved) +
                    " comparisons unresolved; the order is provisional")
              : tournament->fault;
    }
  }
  if (const FaultReport* report = expert->inner()->fault_report()) {
    out.has_expert_faults = true;
    out.expert_faults = *report;
  }

  std::vector<ElementId> ranked =
      OrderByWins(out.result.candidates, tournament->tournament);
  ranked.resize(static_cast<size_t>(options.k));
  out.result.top = std::move(ranked);
  return out;
}

Result<BatchedMultilevelResult> PipelinedFindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<PipelinedWorkerClassSpec>& classes,
    const MultilevelOptions& options,
    const BatchedPipelineOptions& pipeline) {
  if (classes.empty()) {
    return Status::InvalidArgument("at least one worker class is required");
  }
  for (const PipelinedWorkerClassSpec& spec : classes) {
    if (spec.async == nullptr) {
      return Status::InvalidArgument("worker class has null executor");
    }
    if (spec.cost_per_comparison < 0.0) {
      return Status::InvalidArgument("cost_per_comparison must be >= 0");
    }
  }
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  // Same run-span label as the batched path: the pipelined drive is
  // bit-identical to it, traces included.
  TraceSpanScope run_span(TraceSpanKind::kRun, "batched_multilevel");

  BatchedMultilevelResult out;
  out.result.paid_per_class.assign(classes.size(), 0);
  out.steps_per_class.assign(classes.size(), 0);

  std::vector<ElementId> current = items;

  // The class index doubles as the cache class (multilevel.h), so the
  // pipeline-level cache override is dropped in favour of per-level wiring.
  BatchedPipelineOptions level_pipeline = pipeline;
  level_pipeline.shared_cache = nullptr;

  for (size_t level = 0; level + 1 < classes.size(); ++level) {
    const PipelinedWorkerClassSpec& spec = classes[level];
    if (spec.u < 1) {
      return Status::InvalidArgument("worker class u must be >= 1");
    }
    FilterOptions filter = options.filter_template;
    filter.u_n = spec.u;
    if (options.shared_cache != nullptr) {
      filter.shared_cache = options.shared_cache;
      filter.cache_class = static_cast<int64_t>(level);
    }
    Result<BatchedFilterResult> filtered =
        PipelinedFilterCandidates(current, filter, spec.async, level_pipeline);
    if (!filtered.ok()) return filtered.status();
    out.result.paid_per_class[level] = filtered->filter.paid_comparisons;
    out.steps_per_class[level] = filtered->logical_steps;
    out.result.candidates_per_level.push_back(
        static_cast<int64_t>(filtered->filter.candidates.size()));
    if (filtered->partial) {
      out.partial = true;
      if (out.fault_status.ok()) out.fault_status = filtered->fault_status;
    }
    current = std::move(filtered->filter.candidates);
    if (current.empty()) {
      return Status::Internal("filter level returned an empty candidate set");
    }
  }

  const size_t last = classes.size() - 1;
  Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreatePipelined(
      classes[last].async, pipeline.max_in_flight, options.shared_cache,
      static_cast<int64_t>(last));
  if (!engine.ok()) return engine.status();
  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  switch (options.final_phase) {
    case Phase2Algorithm::kTwoMaxFind: {
      Result<MaxFindEngineRun> run = RunTwoMaxFindOnEngine(
          current, engine->get(),
          TwoMaxFindEngineOptions{options.final_speculate});
      if (!run.ok()) return run.status();
      out.result.best = run->maxfind.best;
      if (run->partial) {
        out.partial = true;
        if (out.fault_status.ok()) out.fault_status = run->fault_status;
      }
      break;
    }
    case Phase2Algorithm::kRandomized: {
      Result<MaxFindEngineRun> run =
          RunRandomizedMaxFindOnEngine(current, engine->get(),
                                       options.randomized);
      if (!run.ok()) return run.status();
      out.result.best = run->maxfind.best;
      if (run->partial) {
        out.partial = true;
        if (out.fault_status.ok()) out.fault_status = run->fault_status;
      }
      break;
    }
    case Phase2Algorithm::kAllPlayAll: {
      Result<TournamentEngineRun> run = RunTournamentOnEngine(
          current, engine->get(), "all_play_all",
          TournamentEngineOptions{options.final_chunk_pairs});
      if (!run.ok()) return run.status();
      out.result.best = current[IndexOfMostWins(run->tournament)];
      if (run->unresolved > 0 || !run->fault.ok()) {
        out.partial = true;
        if (out.fault_status.ok()) {
          out.fault_status =
              run->fault.ok()
                  ? Status::Unavailable(
                        "final tournament left " +
                        std::to_string(run->unresolved) +
                        " comparisons unresolved; best is provisional")
                  : run->fault;
        }
      }
      break;
    }
  }
  out.result.paid_per_class[last] =
      (*engine)->paid() - (*engine)->speculation_wasted();
  out.steps_per_class[last] = (*engine)->logical_steps();

  for (size_t i = 0; i < classes.size(); ++i) {
    out.result.total_cost +=
        static_cast<double>(out.result.paid_per_class[i]) *
        classes[i].cost_per_comparison;
  }
  return out;
}

}  // namespace crowdmax
