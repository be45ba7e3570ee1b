// Fault-tolerant batch execution (the recovery half of the fault model).
//
// The paper's guarantees (Lemmas 1-3, Theorem 1) assume every submitted
// comparison comes back answered; a CrowdFlower-style platform loses votes
// to task abandonment, stragglers and worker churn, and sometimes rejects
// a submission outright (platform/platform.h, FaultOptions). This header
// provides the execution-side recovery stack:
//
//  * ResilientBatchExecutor — a decorator over any BatchExecutor that
//    re-issues unanswered or no-quorum tasks with bounded retries and
//    exponential backoff, accepts relaxed-quorum majorities once enough
//    votes arrived, and on an exhausted budget either degrades through a
//    caller-supplied tie-break or propagates a typed Unavailable status so
//    the queries can return partial results. Every recovery action is
//    accounted in a FaultReport (core/execution.h).
//
//  * FaultInjectingBatchExecutor — deterministic fault injection over any
//    executor, for tests and benches that need faults without a platform
//    (e.g. exercising the resilient layer over ParallelBatchExecutor at
//    several thread counts).
//
// Both decorators are deterministic given their seeds and the inner
// executor's determinism, so faulty runs replay bit-for-bit.

#ifndef CROWDMAX_CORE_RESILIENT_H_
#define CROWDMAX_CORE_RESILIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/batched.h"

namespace crowdmax {

/// Tie-break for tasks the retry budget could not resolve: must return one
/// of the two elements. Deterministic policies keep runs replayable.
using FaultFallback = std::function<ElementId(ElementId a, ElementId b)>;

/// Built-in deterministic fallback: the smaller id wins. Id order carries
/// no value information, but the choice is stable across runs and thread
/// counts — use it when availability matters more than the guarantee.
ElementId SmallerIdFallback(ElementId a, ElementId b);

/// Recovery policy of ResilientBatchExecutor.
struct ResilientOptions {
  /// Re-submissions allowed per caller batch beyond the first attempt.
  int64_t max_retries = 3;
  /// Relaxed quorum: accept a provisional (no-quorum) majority once at
  /// least this many collected votes back it, instead of re-issuing the
  /// task. Fully answered outcomes are always accepted. 1 accepts any
  /// majority of whatever arrived; raise it to demand more evidence.
  int64_t min_votes = 1;
  /// Backoff before retry k (1-based) is accounted as
  /// backoff_base_steps << (k-1) logical steps in the FaultReport
  /// (latency inflation; the simulator has no wall clock to sleep on).
  /// 0 disables backoff accounting.
  int64_t backoff_base_steps = 1;
  /// Graceful degradation: applied to tasks still unresolved when the
  /// retry budget is exhausted. When empty, the executor instead
  /// propagates Status::Unavailable and the queries return partial
  /// results (survivors so far + fault report).
  FaultFallback fallback;
};

/// Decorator that makes any BatchExecutor survive the fault modes of the
/// fallible execution path. logical_steps() describes the caller-visible
/// execution (one step per batch); comparisons() charges the true crowd
/// spend — every task of every attempt, retries included — so it matches
/// the inner executor's dispatch count and the platform transcript row
/// count. Extra latency is accounted in FaultReport::steps_added.
class ResilientBatchExecutor : public BatchExecutor {
 public:
  /// `inner` is not owned and must outlive the decorator. Returns
  /// InvalidArgument for a null inner, max_retries < 0, min_votes < 1 or
  /// backoff_base_steps < 0.
  static Result<std::unique_ptr<ResilientBatchExecutor>> Create(
      BatchExecutor* inner, const ResilientOptions& options = {});

  const FaultReport& report() const { return report_; }
  const FaultReport* fault_report() const override { return &report_; }

  /// Resets this executor's counters and its FaultReport. The inner
  /// executor's counters are left untouched (it may be shared or may be a
  /// platform adapter with its own snapshot discipline).
  void ResetCounters() override;

  /// Simulated latency accrues in the inner stack (every attempt's round
  /// trip, retries included); the decorator just drains it through.
  int64_t TakeSimulatedLatencyMicros() override;

  /// Overrides the quorum/retry policy in place — the graceful-degradation
  /// lever of the ServiceSupervisor (query/supervisor.h). Takes effect on
  /// the next batch; the FaultReport keeps accumulating across the switch,
  /// so degraded and healthy work land in one ledger.
  void set_options(const ResilientOptions& options) { options_ = options; }
  const ResilientOptions& options() const { return options_; }

 private:
  ResilientBatchExecutor(BatchExecutor* inner, const ResilientOptions& options);

  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override;

  /// The inner executor records the dispatched/outcome trace cells; this
  /// decorator records only what it terminates (retries, degradations).
  bool RecordsTraceCells() const override { return false; }

  // Checkpoint support: the FaultReport ledger plus the inner stack.
  Status DoSaveState(CheckpointWriter* writer) const override;
  Status DoLoadState(CheckpointReader* reader) override;

  BatchExecutor* inner_;
  ResilientOptions options_;
  FaultReport report_;
};

/// Deterministic executor-level fault injection (no platform needed).
struct InjectedFaultOptions {
  /// Per-task probability the task comes back unanswered with zero votes.
  double drop_probability = 0.0;
  /// Per-task probability the task comes back as a no-quorum partial: the
  /// inner winner is reported with answered=false and `partial_votes`
  /// backing votes.
  double no_quorum_probability = 0.0;
  /// Per-submission probability of a transient Unavailable error (the
  /// whole batch fails; no step, no votes).
  double unavailable_probability = 0.0;
  /// Votes reported for healthy tasks (answered=true).
  int64_t votes_per_task = 5;
  /// Votes reported for injected no-quorum partials; keep it below a
  /// resilient caller's min_votes to force re-issues, or at/above it to
  /// exercise relaxed-quorum acceptance.
  int64_t partial_votes = 2;
  /// Seed of the injection stream.
  uint64_t seed = 0;
};

/// Wraps any executor and injects faults on the fallible path. All fault
/// draws happen serially at submission time, before delegating to the
/// inner executor, so the injected pattern depends only on the submission
/// sequence and the seed — never on the inner executor's thread schedule.
class FaultInjectingBatchExecutor : public BatchExecutor {
 public:
  /// `inner` is not owned. Returns InvalidArgument for a null inner,
  /// probabilities outside [0, 1), votes_per_task < 1 or partial_votes < 1.
  static Result<std::unique_ptr<FaultInjectingBatchExecutor>> Create(
      BatchExecutor* inner, const InjectedFaultOptions& options);

  int64_t injected_drops() const { return injected_drops_; }
  int64_t injected_no_quorums() const { return injected_no_quorums_; }
  int64_t injected_unavailable() const { return injected_unavailable_; }

  /// Forwards the inner stack's simulated latency (injected failures cost
  /// no extra round trip: an injected-unavailable submission never reached
  /// the inner executor).
  int64_t TakeSimulatedLatencyMicros() override;

 private:
  FaultInjectingBatchExecutor(BatchExecutor* inner,
                              const InjectedFaultOptions& options);

  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override;

  /// Forwarded tasks are recorded by the inner (sink) executor; this
  /// decorator records the faults it injects itself — dropped tasks (which
  /// never reach the inner executor) and the demotion of inner answers to
  /// no-quorum partials — so the trace reflects the modeled crowd.
  bool RecordsTraceCells() const override { return false; }

  // Checkpoint support: the injection RNG stream, the injected-fault
  // counters, and the inner stack — a resumed run injects the exact same
  // fault pattern the uninterrupted run would have.
  Status DoSaveState(CheckpointWriter* writer) const override;
  Status DoLoadState(CheckpointReader* reader) override;

  BatchExecutor* inner_;
  InjectedFaultOptions options_;
  Rng rng_;
  int64_t injected_drops_ = 0;
  int64_t injected_no_quorums_ = 0;
  int64_t injected_unavailable_ = 0;
};

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_RESILIENT_H_
