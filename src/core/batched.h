// Logical-step (batched) execution of the paper's algorithms.
//
// Section 3: "the algorithms we consider are organized in logical time
// steps. In the s-th logical step, a batch B_s of pairwise comparisons is
// sent to the crowdsourcing platform, which, after some time, returns the
// corresponding answers" — and, following Venetis et al., the number of
// logical steps is the natural time-complexity measure of a crowdsourcing
// algorithm (monetary cost is the comparison count; latency is the step
// count).
//
// The sequential algorithms in filter_phase.h / maxfind.h issue one
// comparison at a time through a Comparator; the Batched* variants here
// drive the very same RoundSources (core/round_engine.h) on an
// executor-backed engine, so every independent comparison of a round goes
// to a BatchExecutor as one batch and the logical-step counts reflect the
// true round structure: Algorithm 2 runs in O(log n) steps, 2-MaxFind in
// O(sqrt(s)) steps. Results are identical to the sequential versions
// whenever worker answers are consistent per pair (memoization/persistent
// ties). This file owns the executor stack (the crowd-side abstraction)
// and the thin Batched* adapters; the round loop itself lives in
// RoundEngine and nowhere else.

#ifndef CROWDMAX_CORE_BATCHED_H_
#define CROWDMAX_CORE_BATCHED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/comparator.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/maxfind.h"
#include "core/multilevel.h"
#include "core/round_engine.h"
#include "core/topk.h"
#include "core/tournament.h"

namespace crowdmax {

class CheckpointReader;
class CheckpointWriter;

// ComparisonPair (a pairwise comparison request; `a` and `b` must be
// distinct elements) now lives in core/comparator.h, the layer the engine,
// the executor stack and the batch vote interface all share.

/// Per-task outcome of a fallible batch execution (TryExecuteBatch).
struct BatchTaskResult {
  /// The reported winner: authoritative when `answered`, a provisional
  /// majority of whatever votes arrived when not (or -1 if none did).
  ElementId winner = -1;
  /// True when the executor fully answered the task (full quorum). False
  /// marks a task lost to a fault (no quorum, dropped, abandoned).
  bool answered = false;
  /// Votes backing `winner`, when the executor knows (platform adapters);
  /// -1 when the concept does not apply (simulation executors).
  int64_t counted_votes = -1;
};

/// Fault/recovery accounting of a resilient execution (core/resilient.h):
/// what was retried, what was lost, what was degraded and what the
/// recovery cost in extra logical steps. Threaded through the Batched*
/// results and printed by the benches so EXPERIMENTS can chart cost and
/// latency inflation versus fault rate.
struct FaultReport {
  /// Caller-visible batches executed.
  int64_t batches = 0;
  /// Inner submissions, including retries (>= batches).
  int64_t attempts = 0;
  /// Task re-issues caused by unanswered or no-quorum outcomes.
  int64_t retried_tasks = 0;
  /// Task outcomes observed without a counted answer (before retry).
  int64_t votes_lost = 0;
  /// No-quorum outcomes accepted under the relaxed-quorum policy.
  int64_t relaxed_accepts = 0;
  /// Tasks resolved by the fallback tie-break after the retry budget ran
  /// out.
  int64_t degraded_tasks = 0;
  /// Whole-batch transient errors (Unavailable) absorbed by retrying.
  int64_t transient_errors = 0;
  /// Extra logical steps the recovery cost: inner steps beyond the one
  /// step per caller-visible batch, plus exponential-backoff waits.
  int64_t steps_added = 0;
  /// Backoff waits alone, in logical steps (included in steps_added).
  int64_t backoff_steps = 0;
  /// True when a batch exhausted its retry budget with unresolved tasks
  /// and no fallback policy was available; `last_error` holds the typed
  /// Status that was propagated.
  bool exhausted = false;
  Status last_error;

  /// One-line human-readable summary for benches and logs.
  std::string ToString() const;
};

/// Executes batches of independent comparisons, one logical step per
/// non-empty batch. Implementations: ComparatorBatchExecutor (simulation),
/// ParallelBatchExecutor, PlatformBatchExecutor (the crowd-platform adapter
/// in platform/platform.h) and the fault-handling decorators in
/// core/resilient.h.
class BatchExecutor {
 public:
  virtual ~BatchExecutor() = default;

  /// Executes `tasks` in one logical step and returns the winners, aligned
  /// with the input. An empty batch costs nothing and no step. This path
  /// assumes an executor that cannot fail (the paper's model); executors
  /// with fault modes abort (CHECK) here and must be driven through
  /// TryExecuteBatch or wrapped in ResilientBatchExecutor.
  std::vector<ElementId> ExecuteBatch(const std::vector<ComparisonPair>& tasks);

  /// Fallible variant: executes `tasks` in one logical step and reports a
  /// per-task BatchTaskResult, aligned with the input. Returns a non-OK
  /// Status (typically Unavailable) when the whole submission failed — in
  /// that case no logical step is accounted. Individual tasks may come
  /// back unanswered; the batched algorithms treat those conservatively
  /// (no elimination without evidence) and re-issue them later.
  Result<std::vector<BatchTaskResult>> TryExecuteBatch(
      const std::vector<ComparisonPair>& tasks);

  /// Logical steps consumed so far.
  int64_t logical_steps() const { return logical_steps_; }

  /// Comparisons executed so far (cache-free; callers batch only misses).
  int64_t comparisons() const { return comparisons_; }

  /// Comparisons bought for speculative rounds that were cancelled before
  /// executing (DESIGN.md §15). The pipelined engine charges the tasks a
  /// mispredicted round would have sent — crowd workers were reserved for
  /// them — so comparisons() reflects the true bill; this counter keeps the
  /// wasted share first-class instead of folding it silently into the paid
  /// tally: comparisons() - cancelled_comparisons() equals the synchronous
  /// drive's spend.
  int64_t cancelled_comparisons() const { return cancelled_comparisons_; }

  /// Charges `count` comparisons of cancelled speculative work (engine
  /// use). The spend lands in both comparisons() and
  /// cancelled_comparisons(); trace cells are untouched — cancelled tasks
  /// were never dispatched, and MetricsAuditor::ExpectDispatchedWithCancelled
  /// reconciles the difference.
  void ChargeCancelledSpeculation(int64_t count) {
    comparisons_ += count;
    cancelled_comparisons_ += count;
  }

  /// Zeroes the step/comparison counters. Virtual so that decorators and
  /// adapters can reset (or snapshot) their own accounting alongside —
  /// e.g. PlatformBatchExecutor snapshots the shared platform's vote and
  /// step counters to keep mixed-phase accounting honest.
  virtual void ResetCounters() {
    logical_steps_ = 0;
    comparisons_ = 0;
    cancelled_comparisons_ = 0;
  }

  /// The fault/recovery report of this executor, or nullptr for executors
  /// without one. Overridden by ResilientBatchExecutor; lets the batched
  /// algorithms thread the report into their results without RTTI.
  virtual const FaultReport* fault_report() const { return nullptr; }

  /// Checkpoints the executor's replay state: the step/comparison counters
  /// plus everything the concrete class owns (comparator RNG streams,
  /// chunk-seed chains, retry reports). Decorators chain into their inner
  /// executor, so one call on the top of a stack walks the whole stack.
  /// Executors that do not opt in via DoSaveState/DoLoadState return
  /// kFailedPrecondition — notably PlatformBatchExecutor, whose replay
  /// state lives in the shared CrowdPlatform; platform-mode queries recover
  /// by deterministic re-execution instead (query/supervisor.h).
  Status SaveState(CheckpointWriter* writer) const;
  Status LoadState(CheckpointReader* reader);

  /// Drains the simulated crowd round-trip latency (microseconds) this
  /// executor has accumulated since the last drain. Executors without a
  /// latency model return 0 (the default). PlatformBatchExecutor banks the
  /// platform's per-batch latency draws here; decorators forward to their
  /// inner executor. The caller decides what to do with the time: the
  /// engine's non-pipelined drive sleeps it out inline, the pipelined
  /// drive (core/async_executor.h) overlaps it with later submissions.
  virtual int64_t TakeSimulatedLatencyMicros() { return 0; }

 protected:
  BatchExecutor() = default;

  /// Adjusts the comparison counter beyond what the public wrappers charge
  /// (tasks.size() per successful call). Decorators whose true crowd spend
  /// differs from the caller-visible task count use this to keep
  /// comparisons() equal to what was actually bought — e.g.
  /// ResilientBatchExecutor charges every retry re-issue, and un-charges
  /// the wrapper's nominal batch when all attempts failed and a fallback
  /// resolved the tasks for free. `delta` may be negative.
  void ChargeExtraComparisons(int64_t delta) { comparisons_ += delta; }

 private:
  virtual std::vector<ElementId> DoExecuteBatch(
      const std::vector<ComparisonPair>& tasks) = 0;

  /// Fallible override point. The default adapts DoExecuteBatch: every
  /// task comes back answered and the call never fails.
  virtual Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks);

  /// Whether the public wrappers record this executor's dispatched tasks
  /// and their outcomes as trace cells (core/trace.h). True for executors
  /// that buy crowd work themselves (the default); decorators that
  /// delegate to an inner executor return false so each dispatched
  /// comparison lands in exactly one cell — the innermost executor's.
  virtual bool RecordsTraceCells() const { return true; }

  /// Checkpoint override points for the class-specific state beyond the
  /// counters (which SaveState/LoadState handle). The defaults refuse, so
  /// an executor cannot silently resume with replay state it never saved.
  virtual Status DoSaveState(CheckpointWriter* writer) const;
  virtual Status DoLoadState(CheckpointReader* reader);

  int64_t logical_steps_ = 0;
  int64_t comparisons_ = 0;
  int64_t cancelled_comparisons_ = 0;
};

/// Adapts any Comparator to the batch interface: answers are produced
/// sequentially but accounted as one logical step per batch (a pool of
/// workers large enough to absorb the batch in parallel). Does not own the
/// comparator.
class ComparatorBatchExecutor : public BatchExecutor {
 public:
  explicit ComparatorBatchExecutor(Comparator* comparator);

 private:
  // Answers every task, or returns the InvalidArgument naming the first
  // task the batch vote interface refused (an id outside the instance):
  // TryExecuteBatch reports it, ExecuteBatch CHECK-fails on it.
  Result<std::vector<ElementId>> Answer(
      const std::vector<ComparisonPair>& tasks);
  std::vector<ElementId> DoExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override;
  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override;

  // Checkpoint support: the comparator carries all the replay state.
  Status DoSaveState(CheckpointWriter* writer) const override;
  Status DoLoadState(CheckpointReader* reader) override;

  Comparator* comparator_;
};

/// Batch executor that answers each batch concurrently on a work-stealing
/// pool. The batch is split into contiguous chunks of `chunk_size` tasks;
/// each chunk is answered by an independent Comparator::Fork child whose
/// seed is drawn in chunk order *before* dispatch, and winners land in
/// disjoint slots of the pre-sized output — so answers and counts are
/// bit-identical for every thread count (but differ, in RNG draw order,
/// from ComparatorBatchExecutor over the same comparator). Paid counts are
/// merged into the base comparator at the end of each batch. Does not own
/// the comparator.
class ParallelBatchExecutor : public BatchExecutor {
 public:
  /// Requires a forkable `comparator` (InvalidArgument otherwise),
  /// threads >= 1 and chunk_size >= 1. `seed` starts the chunk-seed chain.
  static Result<std::unique_ptr<ParallelBatchExecutor>> Create(
      Comparator* comparator, int64_t threads, uint64_t seed,
      int64_t chunk_size = 256);

 private:
  ParallelBatchExecutor(Comparator* comparator, int64_t threads,
                        uint64_t seed, int64_t chunk_size);

  // As ComparatorBatchExecutor::Answer; with refusals in several chunks,
  // the first in chunk order is named, after the chunks' counts merged.
  Result<std::vector<ElementId>> Answer(
      const std::vector<ComparisonPair>& tasks);
  std::vector<ElementId> DoExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override;
  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override;

  // Checkpoint support: the chunk-seed chain plus the base comparator's
  // state. Fork children are per-batch and hold no cross-batch state, so
  // the seeder position is all the parallel path needs to replay.
  Status DoSaveState(CheckpointWriter* writer) const override;
  Status DoLoadState(CheckpointReader* reader) override;

  Comparator* comparator_;
  ThreadPool pool_;
  Rng seeder_;
  int64_t chunk_size_;
};

// BatchedAllPlayAll was deprecated (it bypassed the engine's cache and
// fault accounting) and has been removed; drive RunTournamentOnEngine on
// RoundEngine::CreateBatched instead. See DESIGN.md §10's deprecation
// table.

/// FilterResult plus the logical steps the run consumed.
struct BatchedFilterResult {
  FilterResult filter;
  int64_t logical_steps = 0;
  /// True when the executor's fault budget was exhausted mid-run: the
  /// round loop stopped early and `filter.candidates` holds the survivors
  /// so far (a superset of what a clean run would keep — the maximum still
  /// survives). `fault_status` carries the typed error that stopped it.
  bool partial = false;
  Status fault_status;
};

/// Algorithm 2 with each round's group tournaments issued as one batch:
/// O(log n) logical steps. Supports the same options as FilterCandidates;
/// `memoize` keeps a pair cache across rounds so repeated pairs are not
/// re-sent to the crowd, and `shared_cache`/`cache_class` share that cache
/// across calls of the same worker class.
Result<BatchedFilterResult> BatchedFilterCandidates(
    const std::vector<ElementId>& items, const FilterOptions& options,
    BatchExecutor* executor);

/// Options of the pipelined (latency-hiding) adapters.
struct BatchedPipelineOptions {
  /// Rounds allowed to ride the simulated crowd latency concurrently
  /// (RoundEngine::CreatePipelined). 1 degenerates to the batched path's
  /// schedule with async submission.
  int64_t max_in_flight = 4;
  /// Cross-call pair-evidence sharing for the pipelined engine; overrides
  /// FilterOptions::shared_cache/cache_class when set. Not owned.
  SharedPairCache* shared_cache = nullptr;
  int64_t cache_class = 0;
};

/// Algorithm 2 driven on a pipelined engine: rounds are submitted through
/// `async` and overlap their crowd round trips wherever the source's
/// legality conditions hold. Set FilterOptions::pipeline_groups to emit one
/// engine round per disjoint group — with it off every round is a
/// dependency barrier and the pipeline never gets deeper than 1. Results,
/// counters and traces are bit-identical to BatchedFilterCandidates over
/// the same executor stack with the same options; only wall-clock differs.
Result<BatchedFilterResult> PipelinedFilterCandidates(
    const std::vector<ElementId>& items, const FilterOptions& options,
    AsyncBatchExecutor* async, const BatchedPipelineOptions& pipeline = {});

/// MaxFindResult plus the logical steps the run consumed.
struct BatchedMaxFindResult {
  MaxFindResult maxfind;
  int64_t logical_steps = 0;
  /// True when the executor's fault budget was exhausted mid-run;
  /// `survivors` then holds the candidates still alive (the best guess is
  /// `maxfind.best` if the final tournament ran, else -1) and
  /// `fault_status` the typed error.
  bool partial = false;
  Status fault_status;
  std::vector<ElementId> survivors;
};

/// 2-MaxFind with two batches per round (sample tournament, then the
/// pivot's elimination scan) and one final batch: O(sqrt(s)) logical
/// steps. Always memoizes (the paper's assumption), so repeated pairs are
/// answered from cache without a step; pass a `shared_cache` to extend the
/// memo across calls of the same worker class (1 = expert by convention).
Result<BatchedMaxFindResult> BatchedTwoMaxFind(
    const std::vector<ElementId>& items, BatchExecutor* executor,
    SharedPairCache* shared_cache = nullptr, int64_t cache_class = 1);

/// 2-MaxFind on a pipelined engine. With `engine_options.speculate` set the
/// source issues each round's elimination scan while its sample tournament
/// is still in flight, predicated on the predicted pivot (DESIGN.md §15);
/// results, traces and paid counters are bit-identical to BatchedTwoMaxFind
/// over the same executor stack — only wall clock and the engine's
/// speculation counters differ. Speculation is ignored on budget-gated
/// drives (none here) and costs nothing when the prediction always misses
/// beyond the tracked `speculation_wasted` charge.
Result<BatchedMaxFindResult> PipelinedTwoMaxFind(
    const std::vector<ElementId>& items, AsyncBatchExecutor* async,
    const BatchedPipelineOptions& pipeline = {},
    const TwoMaxFindEngineOptions& engine_options = {},
    SharedPairCache* shared_cache = nullptr, int64_t cache_class = 1);

/// Two-phase result plus per-class logical steps and fault accounting.
struct BatchedExpertMaxResult {
  ExpertMaxResult result;
  int64_t naive_steps = 0;
  int64_t expert_steps = 0;
  /// True when either phase stopped early on an exhausted fault budget;
  /// `result.candidates` still holds the phase-1 survivors collected so
  /// far, `result.best` is -1 if phase 2 could not finish, and
  /// `fault_status` carries the typed error.
  bool partial = false;
  Status fault_status;
  /// Per-phase fault/recovery reports, copied from the executors when they
  /// are resilient (BatchExecutor::fault_report() != nullptr); the
  /// has_* flags say whether a report was collected.
  bool has_naive_faults = false;
  bool has_expert_faults = false;
  FaultReport naive_faults;
  FaultReport expert_faults;
};

/// Algorithm 1 in batched form: BatchedFilterCandidates with the naive
/// executor, then BatchedTwoMaxFind with the expert executor. When the
/// executors are resilient (core/resilient.h), their FaultReports are
/// summarized into the result; when a fault budget is exhausted the run
/// returns a partial result (survivors so far + fault status) instead of
/// aborting.
Result<BatchedExpertMaxResult> BatchedFindMaxWithExperts(
    const std::vector<ElementId>& items, BatchExecutor* naive,
    BatchExecutor* expert, const ExpertMaxOptions& options);

/// Top-k result plus per-class logical steps and fault accounting.
struct BatchedTopKResult {
  TopKResult result;
  int64_t naive_steps = 0;
  int64_t expert_steps = 0;
  /// True when a phase ran on incomplete evidence: the filter stopped
  /// early on an exhausted fault budget (candidates hold the survivors so
  /// far — a superset, the true top-k still inside) or the expert
  /// tournament left pairs unresolved (the returned order is the
  /// provisional win count). `fault_status` carries the typed error.
  bool partial = false;
  Status fault_status;
  bool has_naive_faults = false;
  bool has_expert_faults = false;
  FaultReport naive_faults;
  FaultReport expert_faults;
};

/// The top-k extension (core/topk.h) in batched form: the u' = u_n + k - 1
/// filter on the naive executor (O(log n) steps), then one expert
/// all-play-all batch over the candidates. Same options contract as
/// FindTopKWithExperts.
Result<BatchedTopKResult> BatchedFindTopKWithExperts(
    const std::vector<ElementId>& items, BatchExecutor* naive,
    BatchExecutor* expert, const TopKOptions& options);

/// Top-k on pipelined engines: the filter phase overlaps its disjoint
/// groups (set FilterOptions::pipeline_groups in options.filter) and the
/// expert all-play-all overlaps its chunks when
/// TopKOptions::expert_chunk_pairs > 0. Results are bit-identical to
/// BatchedFindTopKWithExperts over the same executor stacks with the same
/// options; only wall clock differs.
Result<BatchedTopKResult> PipelinedFindTopKWithExperts(
    const std::vector<ElementId>& items, AsyncBatchExecutor* naive,
    AsyncBatchExecutor* expert, const TopKOptions& options,
    const BatchedPipelineOptions& pipeline = {});

/// One worker class of the batched cascade: multilevel.h semantics with a
/// BatchExecutor (and its fault stack) in place of the raw Comparator.
struct BatchedWorkerClassSpec {
  /// Executor backed by this class's workers (not owned).
  BatchExecutor* executor = nullptr;
  /// u_k for this class's filter level (ignored for the last class).
  int64_t u = 1;
  /// Price per comparison, for cost reporting.
  double cost_per_comparison = 1.0;
};

/// Multilevel result plus per-class logical steps and fault accounting.
struct BatchedMultilevelResult {
  MultilevelResult result;
  /// Logical steps per class, aligned with the input specs.
  std::vector<int64_t> steps_per_class;
  /// True when any level stopped early on an exhausted fault budget; the
  /// cascade still hands the survivor superset down, so `result.best` is
  /// filled whenever the final phase produced a provisional leader.
  bool partial = false;
  Status fault_status;
};

/// The worker-class cascade (core/multilevel.h) in batched form: every
/// non-final class runs the filter on its executor, the final class runs
/// the configured phase-2 solver. Step counts per class come from the
/// executors' logical-step deltas.
Result<BatchedMultilevelResult> BatchedFindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<BatchedWorkerClassSpec>& classes,
    const MultilevelOptions& options);

/// One worker class of the pipelined cascade: BatchedWorkerClassSpec with
/// an async executor in place of the synchronous one.
struct PipelinedWorkerClassSpec {
  /// Async executor backed by this class's workers (not owned).
  AsyncBatchExecutor* async = nullptr;
  /// u_k for this class's filter level (ignored for the last class).
  int64_t u = 1;
  /// Price per comparison, for cost reporting.
  double cost_per_comparison = 1.0;
};

/// The worker-class cascade on pipelined engines: filter levels overlap
/// their disjoint groups (set FilterOptions::pipeline_groups in
/// options.filter_template), and the final phase overlaps per
/// MultilevelOptions::final_chunk_pairs / final_speculate (DESIGN.md §15).
/// Results are bit-identical to BatchedFindMaxMultilevel over the same
/// executor stacks with the same options; only wall clock and the engines'
/// speculation counters differ.
Result<BatchedMultilevelResult> PipelinedFindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<PipelinedWorkerClassSpec>& classes,
    const MultilevelOptions& options,
    const BatchedPipelineOptions& pipeline = {});

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_BATCHED_H_
