// The crowdsourcing platform simulator (Sections 3 and 5).
//
// CrowdPlatform models a CrowdFlower-style service: algorithms submit
// batches of pairwise comparison microtasks (one batch per logical step);
// the platform assigns each task to distinct workers drawn from its pool,
// interleaves gold questions, discards votes from workers who fail gold
// quality control, and aggregates the rest by majority vote. Physical
// steps are accounted from the pool size and per-step worker capacity,
// following the logical/physical step distinction of Section 3
// (after Venetis et al.).
//
// The paper's guarantees assume every submitted comparison comes back
// answered; real platforms lose votes to task abandonment, stragglers and
// worker churn. FaultOptions injects exactly those failure modes,
// deterministically from one fault seed, so recovery layers
// (core/resilient.h) can be exercised and replayed bit-for-bit. With the
// default (disabled) FaultOptions the platform behaves — and draws RNG —
// exactly as the fault-free simulator always did.
//
// PlatformComparator adapts the platform to the core Comparator interface
// so every algorithm in the library can run end-to-end against the
// simulated crowd. A "simulated expert" in the paper's Section 5.3 sense is
// simply a PlatformComparator with votes_per_task = 7 (majority of seven
// naive workers) — effective in the DOTS regime, provably not in CARS.

#ifndef CROWDMAX_PLATFORM_PLATFORM_H_
#define CROWDMAX_PLATFORM_PLATFORM_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/instance.h"
#include "platform/gold.h"
#include "platform/task.h"
#include "platform/worker.h"

namespace crowdmax {

/// Deterministic, seeded fault injection for the simulated platform. All
/// fields default to "off"; with every probability zero and min_quorum 1
/// the platform is bit-identical to the fault-free simulator (no extra RNG
/// draws are consumed). Abandonment and straggler draws ride each worker's
/// private RNG stream; churn, transient unavailability and churn-replacement
/// workers draw from a dedicated stream seeded by `seed`, so a fault
/// scenario is replayable from (PlatformOptions::seed, FaultOptions::seed).
struct FaultOptions {
  /// Per-assignment probability that the worker abandons the task: no vote
  /// arrives (recorded in the transcript as kAbandoned).
  double abandon_probability = 0.0;
  /// Per-assignment probability that the worker's answer misses the
  /// physical-step deadline: the late vote is recorded (kDropped) but never
  /// counted.
  double straggler_probability = 0.0;
  /// Per-worker, per-logical-step probability that the worker leaves the
  /// pool and is replaced by a fresh one (new id, fresh RNG, spammer status
  /// re-drawn from PlatformOptions::spammer_fraction, empty gold ledger).
  double churn_probability = 0.0;
  /// Per-SubmitBatch probability of a transient platform error: the call
  /// returns Unavailable without consuming a logical step or any votes.
  double unavailable_probability = 0.0;
  /// Tasks with at least one but fewer counted votes than this are flagged
  /// kNoQuorum (their majority is provisional); tasks with zero counted
  /// votes are kDropped instead of being resolved by a platform coin.
  int64_t min_quorum = 1;
  /// Seed of the dedicated fault stream (churn + transient errors).
  uint64_t seed = 0;

  /// True when any fault mode is active.
  bool enabled() const {
    return abandon_probability > 0.0 || straggler_probability > 0.0 ||
           churn_probability > 0.0 || unavailable_probability > 0.0 ||
           min_quorum > 1;
  }
};

/// Deterministic, seeded per-batch round-trip latency simulation. The
/// platform never sleeps: with the model enabled every SubmitBatch draws a
/// latency for the round trip and *reports* it (last_batch_latency_micros,
/// drained per executor via BatchExecutor::TakeSimulatedLatencyMicros);
/// what to do with the time is the execution layer's choice — the
/// synchronous engine drive sleeps it out inline, the pipelined drive
/// (core/async_executor.h) overlaps it across rounds. Latency draws ride a
/// dedicated RNG stream seeded by `seed`, so enabling the model changes no
/// answer, vote or fault draw, and a scenario replays bit-identically.
struct LatencyOptions {
  /// Fixed round-trip floor per SubmitBatch call (posting, worker pickup).
  int64_t base_micros = 0;
  /// Additional latency per task in the batch (worker throughput).
  int64_t per_task_micros = 0;
  /// Uniform jitter in [0, jitter_micros] added per call, drawn from the
  /// latency stream.
  int64_t jitter_micros = 0;
  /// Seed of the dedicated latency stream.
  uint64_t seed = 0;

  /// True when any latency term is non-zero.
  bool enabled() const {
    return base_micros > 0 || per_task_micros > 0 || jitter_micros > 0;
  }
};

/// Running totals of injected faults and their aggregation-level effects.
struct PlatformFaultStats {
  /// Assignments that never produced a vote (worker abandonment).
  int64_t abandoned_votes = 0;
  /// Votes that arrived past the deadline and were dropped.
  int64_t straggler_votes = 0;
  /// Workers replaced by pool churn.
  int64_t churned_workers = 0;
  /// SubmitBatch calls rejected with a transient Unavailable error.
  int64_t unavailable_errors = 0;
  /// Tasks answered by fewer counted votes than FaultOptions::min_quorum.
  int64_t no_quorum_tasks = 0;
  /// Tasks for which no vote was counted at all.
  int64_t dropped_tasks = 0;

  /// Votes lost to faults (abandonment + stragglers).
  int64_t votes_lost() const { return abandoned_votes + straggler_votes; }
};

/// Static configuration of the simulated platform.
struct PlatformOptions {
  /// Size of the worker pool.
  int64_t num_workers = 50;
  /// Fraction of the pool that spams (answers uniformly at random).
  double spammer_fraction = 0.1;
  /// Per-query slip probability of honest workers, on top of the crowd
  /// answer model.
  double honest_slip_probability = 0.02;
  /// Probability that a task assignment is accompanied by one gold
  /// question (the paper: "15% of the queries that we performed are gold
  /// queries").
  double gold_task_probability = 0.15;
  /// Quality-control thresholds.
  GoldQualityControl::Options gold;
  /// Tasks one worker can complete in one physical time step.
  int64_t worker_capacity_per_physical_step = 5;
  /// Seed for worker assignment, spammer placement and tie-breaking.
  uint64_t seed = 42;
  /// Keep a full transcript of every real (non-gold) task outcome, vote by
  /// vote, for auditing/billing; read it back via transcript() or
  /// ExportTranscriptCsv(). Off by default (memory grows with usage).
  bool record_transcript = false;
  /// Fault injection; disabled by default.
  FaultOptions fault;
  /// Round-trip latency simulation; disabled by default.
  LatencyOptions latency;
};

/// The simulated crowdsourcing service.
class CrowdPlatform {
 public:
  /// `crowd_model` is the shared answer model for honest workers and
  /// `gold_truth` the ground truth used both for gold grading; neither is
  /// owned and both must outlive the platform. `gold_tasks` is the pool of
  /// gold questions (pairs valid in `gold_truth`); it may be empty, in
  /// which case no gold is interleaved and every worker stays trusted.
  static Result<std::unique_ptr<CrowdPlatform>> Create(
      Comparator* crowd_model, const Instance* gold_truth,
      std::vector<ComparisonTask> gold_tasks, const PlatformOptions& options);

  /// Heterogeneous pool (the Appendix-A generalization where "the error
  /// probability depends on ... the worker"): worker i answers through
  /// `worker_models[i]`. Requires worker_models.size() == num_workers and
  /// no null entries; models are not owned and must outlive the platform.
  /// Spammer placement still follows options.spammer_fraction (a spammer's
  /// model is ignored). A churned worker in slot i keeps answering through
  /// `worker_models[i]`.
  static Result<std::unique_ptr<CrowdPlatform>> CreateHeterogeneous(
      std::vector<Comparator*> worker_models, const Instance* gold_truth,
      std::vector<ComparisonTask> gold_tasks, const PlatformOptions& options);

  /// Executes one logical step: assigns every task in `batch` to
  /// `votes_per_task` distinct workers, grades interleaved gold, discards
  /// votes from untrusted workers, and majority-aggregates the rest.
  /// Requires 1 <= votes_per_task <= num_workers and a non-empty batch.
  ///
  /// With faults enabled the call may instead return Unavailable (a
  /// transient, retryable error that consumes no step and no votes), and
  /// individual outcomes may be kNoQuorum or kDropped; callers wanting
  /// automatic recovery should go through ResilientBatchExecutor
  /// (core/resilient.h).
  Result<std::vector<TaskOutcome>> SubmitBatch(
      const std::vector<ComparisonTask>& batch, int64_t votes_per_task);

  int64_t logical_steps() const { return logical_steps_; }
  int64_t physical_steps() const { return physical_steps_; }
  /// Votes collected on real (non-gold) tasks, including discarded and
  /// late (straggler) ones; abandoned assignments never produced a vote
  /// and are not counted here.
  int64_t total_votes() const { return total_votes_; }
  /// Real-task votes discarded because the worker failed gold control.
  int64_t discarded_votes() const { return discarded_votes_; }
  /// Gold questions answered.
  int64_t gold_votes() const { return gold_votes_; }
  int64_t num_workers() const {
    return static_cast<int64_t>(workers_.size());
  }
  int64_t num_spammers() const { return num_spammers_; }
  const GoldQualityControl& gold() const { return gold_control_; }
  /// Fault-injection totals (all zero when faults are disabled).
  const PlatformFaultStats& fault_stats() const { return fault_stats_; }

  /// The simulated round-trip latency of the most recent SubmitBatch call
  /// (zero with the model off). Drawn even for calls rejected with a
  /// transient Unavailable — the round trip was wasted, not skipped.
  int64_t last_batch_latency_micros() const {
    return last_batch_latency_micros_;
  }
  /// Total simulated latency drawn across all SubmitBatch calls. This is
  /// the *serial* (sum of round trips) wall-clock cost; a pipelined run
  /// completes in less.
  int64_t total_latency_micros() const { return total_latency_micros_; }

  /// The recorded task outcomes in submission order (empty unless
  /// options.record_transcript was set).
  const std::vector<TaskOutcome>& transcript() const { return transcript_; }

  /// Writes the transcript as CSV (one row per vote: logical step, pair,
  /// worker, vote, counted flag, task majority, vote and task
  /// dispositions). All fields are RFC-4180 escaped, so dataset-derived
  /// content cannot corrupt the row structure. Returns FailedPrecondition
  /// if recording was not enabled.
  Status ExportTranscriptCsv(std::ostream& out) const;

  /// As above, with two extra `label_a`/`label_b` columns produced by
  /// `labeler` (e.g. dataset item names). Labels are escaped, so commas,
  /// quotes and newlines in item names survive a round-trip through any
  /// RFC-4180 CSV reader. `labeler` must not be null.
  Status ExportTranscriptCsv(
      std::ostream& out,
      const std::function<std::string(ElementId)>& labeler) const;

 private:
  CrowdPlatform(std::vector<Comparator*> worker_models,
                const Instance* gold_truth,
                std::vector<ComparisonTask> gold_tasks,
                const PlatformOptions& options);

  static Status ValidateCommon(const Instance* gold_truth,
                               const std::vector<ComparisonTask>& gold_tasks,
                               const PlatformOptions& options);

  /// Applies worker churn for one logical step: each worker independently
  /// leaves with probability fault.churn_probability and is replaced by a
  /// fresh worker with a new id drawn on the fault stream.
  void ApplyChurn();

  PlatformOptions options_;
  std::vector<ComparisonTask> gold_tasks_;
  GoldQualityControl gold_control_;
  std::vector<Comparator*> worker_models_;
  std::vector<SimulatedWorker> workers_;
  Rng rng_;
  Rng fault_rng_;
  Rng latency_rng_;
  int64_t last_batch_latency_micros_ = 0;
  int64_t total_latency_micros_ = 0;
  std::vector<TaskOutcome> transcript_;
  PlatformFaultStats fault_stats_;
  int32_t next_worker_id_ = 0;
  int64_t num_spammers_ = 0;
  int64_t logical_steps_ = 0;
  int64_t physical_steps_ = 0;
  int64_t total_votes_ = 0;
  int64_t discarded_votes_ = 0;
  int64_t gold_votes_ = 0;
};

/// Adapts a CrowdPlatform to the Comparator interface: each Compare()
/// submits a one-task batch with a fixed number of votes and returns the
/// majority winner. votes_per_task = 1 models a single naive query;
/// votes_per_task = 7 is the paper's "simulated expert".
///
/// Under faults the adapter retries transient errors and unresolved tasks
/// a bounded number of times per comparison; if the budget is exhausted it
/// resolves the comparison with a deterministic private coin (the
/// Comparator contract is total). Fault-aware callers should prefer
/// ResilientBatchExecutor, which reports and types its degradation.
class PlatformComparator : public Comparator {
 public:
  /// Validating factory. Returns InvalidArgument when `platform` is null
  /// or votes_per_task is outside [1, platform workers].
  static Result<std::unique_ptr<PlatformComparator>> Create(
      CrowdPlatform* platform, int64_t votes_per_task);

 private:
  PlatformComparator(CrowdPlatform* platform, int64_t votes_per_task);

  ElementId DoCompare(ElementId a, ElementId b) override;

  CrowdPlatform* platform_;
  int64_t votes_per_task_;
  Rng fallback_rng_;
};

/// Adapts a CrowdPlatform to the BatchExecutor interface: each batch is
/// one SubmitBatch call, i.e. exactly one platform logical step, with the
/// configured number of votes per task. Pass it to a query as its
/// Execution (core/execution.h) to measure true logical-step latency on
/// the simulated crowd.
///
/// TryExecuteBatch() surfaces the platform's fault model (transient
/// Unavailable errors, kNoQuorum / kDropped outcomes) per task; wrap the
/// executor in ResilientBatchExecutor to retry them.
class PlatformBatchExecutor : public BatchExecutor {
 public:
  /// Validating factory. Returns InvalidArgument when `platform` is null
  /// or votes_per_task is outside [1, platform workers].
  static Result<std::unique_ptr<PlatformBatchExecutor>> Create(
      CrowdPlatform* platform, int64_t votes_per_task);

  /// Also snapshots the platform's vote and step counters, so the
  /// *_since_reset() accessors below report per-phase platform usage, and
  /// zeroes the executor-own tallies (executor_votes / discarded) and any
  /// undrained simulated latency. Without the snapshot, algorithms that
  /// reuse one platform across phases (naive executor + expert executor)
  /// would double-count votes and steps when attributing them per phase.
  void ResetCounters() override;

  /// Platform usage attributable to work since the last ResetCounters()
  /// (or construction). Note: when several executors share one platform,
  /// each accessor reports the *platform-wide* delta since this
  /// executor's reset, not only this executor's share — use the
  /// executor_*() tallies below for exact per-executor attribution.
  int64_t platform_votes_since_reset() const;
  int64_t platform_logical_steps_since_reset() const;
  int64_t platform_physical_steps_since_reset() const;
  int64_t platform_discarded_votes_since_reset() const;

  /// Exact per-executor tallies, accumulated from the outcomes of this
  /// executor's own submissions (votes that arrived / votes discarded by
  /// gold control), regardless of how many other executors interleave on
  /// the same platform or in which order their batches complete. Reset by
  /// ResetCounters().
  int64_t executor_votes() const { return executor_votes_; }
  int64_t executor_discarded_votes() const { return executor_discarded_votes_; }

  /// Drains the simulated latency accumulated by this executor's own
  /// submissions. Each executor banks only its own draws (taken from
  /// CrowdPlatform::last_batch_latency_micros immediately after each of
  /// its SubmitBatch calls), so two executors sharing one platform never
  /// steal each other's round trips.
  int64_t TakeSimulatedLatencyMicros() override;

 private:
  PlatformBatchExecutor(CrowdPlatform* platform, int64_t votes_per_task);

  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override;

  /// Folds one of this executor's submission outcomes into the executor-own
  /// tallies and banks the submission's latency draw.
  void AccountOwnSubmission(const std::vector<TaskOutcome>& outcomes);

  CrowdPlatform* platform_;
  int64_t votes_per_task_;
  int64_t votes_snapshot_ = 0;
  int64_t logical_steps_snapshot_ = 0;
  int64_t physical_steps_snapshot_ = 0;
  int64_t discarded_votes_snapshot_ = 0;
  int64_t executor_votes_ = 0;
  int64_t executor_discarded_votes_ = 0;
  int64_t pending_latency_micros_ = 0;
};

}  // namespace crowdmax

#endif  // CROWDMAX_PLATFORM_PLATFORM_H_
