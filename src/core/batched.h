// The executor stack: the crowd-side abstraction that answers a batch of
// independent comparisons in one logical step.
//
// Section 3: "the algorithms we consider are organized in logical time
// steps. In the s-th logical step, a batch B_s of pairwise comparisons is
// sent to the crowdsourcing platform, which, after some time, returns the
// corresponding answers" — and, following Venetis et al., the number of
// logical steps is the natural time-complexity measure of a crowdsourcing
// algorithm (monetary cost is the comparison count; latency is the step
// count).
//
// This file holds the BatchExecutor interface and its two comparator
// adapters (ComparatorBatchExecutor, ParallelBatchExecutor). The platform
// adapter lives in platform/platform.h, the fault-handling decorators in
// core/resilient.h. A query runs on an executor stack through an Execution
// (core/execution.h): every round's cache misses go to the executor as one
// batch, so the logical-step counts reflect the true round structure —
// Algorithm 2 runs in O(log n) steps, 2-MaxFind in O(sqrt(s)) steps.

#ifndef CROWDMAX_CORE_BATCHED_H_
#define CROWDMAX_CORE_BATCHED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/comparator.h"
#include "core/execution.h"
#include "core/instance.h"

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

// FaultReport, the fault/recovery accounting a resilient executor keeps,
// lives in core/execution.h beside the query results that carry it.

/// Executes batches of independent comparisons, one logical step per
/// non-empty batch. Implementations: ComparatorBatchExecutor (simulation),
/// ParallelBatchExecutor, PlatformBatchExecutor (the crowd-platform adapter
/// in platform/platform.h) and the fault-handling decorators in
/// core/resilient.h.
class BatchExecutor {
 public:
  virtual ~BatchExecutor() = default;

  /// Executes `tasks` in one logical step and reports a per-task
  /// BatchTaskResult, aligned with the input. An empty batch costs nothing
  /// and no step. Returns a non-OK Status (typically Unavailable) when the
  /// whole submission failed — in that case no logical step is accounted.
  /// Individual tasks may come back unanswered; the queries treat those
  /// conservatively (no elimination without evidence) and re-issue them
  /// later. An executor that cannot fail (the paper's model) answers every
  /// task.
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
  /// without one. Overridden by ResilientBatchExecutor; lets the queries
  /// copy the report into their results without RTTI.
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
  /// The one override point: answers a non-empty batch for
  /// TryExecuteBatch, which does the step and comparison accounting.
  virtual Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) = 0;

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
  // task the batch vote interface refused (an id outside the instance).
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

  // As ComparatorBatchExecutor's; with refusals in several chunks, the
  // first in chunk order is named, after the chunks' counts merged.
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

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_BATCHED_H_
