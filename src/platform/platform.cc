#include "platform/platform.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/table.h"

namespace crowdmax {

CrowdPlatform::CrowdPlatform(std::vector<Comparator*> worker_models,
                             const Instance* gold_truth,
                             std::vector<ComparisonTask> gold_tasks,
                             const PlatformOptions& options)
    : options_(options),
      gold_tasks_(std::move(gold_tasks)),
      gold_control_(gold_truth, options.gold),
      worker_models_(std::move(worker_models)),
      rng_(options.seed),
      fault_rng_(options.fault.seed),
      latency_rng_(options.latency.seed) {
  // Spammer placement: deterministic count, random worker identities.
  const int64_t n = options.num_workers;
  CROWDMAX_CHECK(static_cast<int64_t>(worker_models_.size()) == n);
  num_spammers_ = static_cast<int64_t>(options.spammer_fraction *
                                       static_cast<double>(n));
  std::vector<bool> is_spammer(static_cast<size_t>(n), false);
  for (size_t idx : rng_.SampleWithoutReplacement(
           static_cast<size_t>(n), static_cast<size_t>(num_spammers_))) {
    is_spammer[idx] = true;
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    SimulatedWorker::Options worker_options;
    worker_options.slip_probability = options.honest_slip_probability;
    worker_options.spammer = is_spammer[static_cast<size_t>(i)];
    worker_options.abandon_probability = options.fault.abandon_probability;
    worker_options.straggler_probability =
        options.fault.straggler_probability;
    workers_.emplace_back(static_cast<int32_t>(i),
                          worker_models_[static_cast<size_t>(i)],
                          worker_options, rng_.Fork());
  }
  next_worker_id_ = static_cast<int32_t>(n);
}

Status CrowdPlatform::ValidateCommon(
    const Instance* gold_truth, const std::vector<ComparisonTask>& gold_tasks,
    const PlatformOptions& options) {
  if (gold_truth == nullptr) {
    return Status::InvalidArgument("gold_truth must not be null");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.spammer_fraction < 0.0 || options.spammer_fraction >= 1.0) {
    return Status::InvalidArgument("spammer_fraction must be in [0, 1)");
  }
  if (options.gold_task_probability < 0.0 ||
      options.gold_task_probability > 1.0) {
    return Status::InvalidArgument("gold_task_probability must be in [0, 1]");
  }
  if (options.worker_capacity_per_physical_step < 1) {
    return Status::InvalidArgument(
        "worker_capacity_per_physical_step must be >= 1");
  }
  const FaultOptions& fault = options.fault;
  if (fault.abandon_probability < 0.0 || fault.abandon_probability >= 1.0) {
    return Status::InvalidArgument(
        "fault.abandon_probability must be in [0, 1)");
  }
  if (fault.straggler_probability < 0.0 ||
      fault.straggler_probability >= 1.0) {
    return Status::InvalidArgument(
        "fault.straggler_probability must be in [0, 1)");
  }
  if (fault.churn_probability < 0.0 || fault.churn_probability >= 1.0) {
    return Status::InvalidArgument("fault.churn_probability must be in [0, 1)");
  }
  if (fault.unavailable_probability < 0.0 ||
      fault.unavailable_probability >= 1.0) {
    return Status::InvalidArgument(
        "fault.unavailable_probability must be in [0, 1)");
  }
  if (fault.min_quorum < 1) {
    return Status::InvalidArgument("fault.min_quorum must be >= 1");
  }
  const LatencyOptions& latency = options.latency;
  if (latency.base_micros < 0 || latency.per_task_micros < 0 ||
      latency.jitter_micros < 0) {
    return Status::InvalidArgument("latency terms must be >= 0");
  }
  for (const ComparisonTask& task : gold_tasks) {
    if (!gold_truth->Contains(task.a) || !gold_truth->Contains(task.b)) {
      return Status::InvalidArgument("gold task references unknown element");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<CrowdPlatform>> CrowdPlatform::Create(
    Comparator* crowd_model, const Instance* gold_truth,
    std::vector<ComparisonTask> gold_tasks, const PlatformOptions& options) {
  if (crowd_model == nullptr) {
    return Status::InvalidArgument("crowd_model must not be null");
  }
  if (Status status = ValidateCommon(gold_truth, gold_tasks, options);
      !status.ok()) {
    return status;
  }
  std::vector<Comparator*> models(static_cast<size_t>(options.num_workers),
                                  crowd_model);
  return std::unique_ptr<CrowdPlatform>(new CrowdPlatform(
      std::move(models), gold_truth, std::move(gold_tasks), options));
}

Result<std::unique_ptr<CrowdPlatform>> CrowdPlatform::CreateHeterogeneous(
    std::vector<Comparator*> worker_models, const Instance* gold_truth,
    std::vector<ComparisonTask> gold_tasks, const PlatformOptions& options) {
  if (Status status = ValidateCommon(gold_truth, gold_tasks, options);
      !status.ok()) {
    return status;
  }
  if (static_cast<int64_t>(worker_models.size()) != options.num_workers) {
    return Status::InvalidArgument(
        "worker_models size must equal num_workers");
  }
  for (const Comparator* model : worker_models) {
    if (model == nullptr) {
      return Status::InvalidArgument("worker model must not be null");
    }
  }
  return std::unique_ptr<CrowdPlatform>(new CrowdPlatform(
      std::move(worker_models), gold_truth, std::move(gold_tasks), options));
}

void CrowdPlatform::ApplyChurn() {
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!fault_rng_.NextBernoulli(options_.fault.churn_probability)) continue;
    const bool was_spammer = workers_[i].is_spammer();
    SimulatedWorker::Options worker_options;
    worker_options.slip_probability = options_.honest_slip_probability;
    worker_options.spammer =
        fault_rng_.NextBernoulli(options_.spammer_fraction);
    worker_options.abandon_probability = options_.fault.abandon_probability;
    worker_options.straggler_probability =
        options_.fault.straggler_probability;
    workers_[i] = SimulatedWorker(next_worker_id_++, worker_models_[i],
                                  worker_options, fault_rng_.Fork());
    num_spammers_ +=
        (worker_options.spammer ? 1 : 0) - (was_spammer ? 1 : 0);
    ++fault_stats_.churned_workers;
  }
}

Result<std::vector<TaskOutcome>> CrowdPlatform::SubmitBatch(
    const std::vector<ComparisonTask>& batch, int64_t votes_per_task) {
  if (batch.empty()) {
    return Status::InvalidArgument("batch must be non-empty");
  }
  if (votes_per_task < 1 || votes_per_task > num_workers()) {
    return Status::InvalidArgument(
        "votes_per_task must be in [1, num_workers]");
  }

  // Latency is drawn per accepted-for-processing call, on its own stream,
  // before the transient-outage draw: a rejected submission wasted its
  // round trip too. The platform only *reports* the draw; sleeping (or
  // overlapping) it is the execution layer's job.
  last_batch_latency_micros_ = 0;
  if (options_.latency.enabled()) {
    int64_t latency =
        options_.latency.base_micros +
        options_.latency.per_task_micros * static_cast<int64_t>(batch.size());
    if (options_.latency.jitter_micros > 0) {
      latency += static_cast<int64_t>(latency_rng_.NextBounded(
          static_cast<uint64_t>(options_.latency.jitter_micros) + 1));
    }
    last_batch_latency_micros_ = latency;
    total_latency_micros_ += latency;
    if (MetricsEnabled()) {
      static Histogram* latencies = MetricsRegistry::Default()->GetHistogram(
          "crowdmax.platform.batch_latency_micros", ExponentialBounds(24));
      latencies->Observe(latency);
    }
  }

  const bool faults = options_.fault.enabled();
  if (faults && options_.fault.unavailable_probability > 0.0 &&
      fault_rng_.NextBernoulli(options_.fault.unavailable_probability)) {
    // Transient outage: nothing was assigned, no step elapsed; retryable.
    ++fault_stats_.unavailable_errors;
    if (MetricsEnabled()) {
      MetricsRegistry::Default()
          ->GetCounter("crowdmax.platform.unavailable_errors")
          ->Increment();
    }
    // The outage is per-submission (no step elapsed), so a retry is
    // expected to succeed one logical step later — the hint the resilient
    // layer and the service supervisor surface to callers.
    return Status::Unavailable(
               "crowd platform temporarily unavailable (injected transient "
               "fault); retry the submission")
        .WithRetryAfter(1);
  }
  if (faults && options_.fault.churn_probability > 0.0) ApplyChurn();

  ++logical_steps_;
  const PlatformFaultStats fault_stats_before = fault_stats_;
  const int64_t votes_before = total_votes_;
  const int64_t discarded_before = discarded_votes_;
  const int64_t gold_before = gold_votes_;
  int64_t assignments = 0;
  std::vector<TaskOutcome> outcomes;
  outcomes.reserve(batch.size());

  // Per-assignment record of the submission's first pass: every platform-
  // and worker-stream draw is made up front (in visit order, so each RNG
  // stream advances exactly as the per-call path did), and the shared
  // answer-model queries are deferred so consecutive same-model queries
  // can be answered in one batch (DESIGN.md §14). Batching never crosses a
  // task: the platform stream interleaves per-task draws (worker sampling,
  // gold coins, tie coins), so only queries *within* one task are runs.
  struct Assignment {
    size_t widx = 0;
    bool has_gold = false;
    ComparisonTask gold_task{};
    PendingAnswer gold_pending{};
    PendingAnswer real_pending{};
  };
  struct ModelQuery {
    Comparator* model = nullptr;
    ComparisonTask task{};
    size_t assignment = 0;
    bool is_gold = false;
    ElementId model_answer = -1;
  };
  std::vector<Assignment> task_assignments;
  std::vector<ModelQuery> model_queue;
  std::vector<ComparisonPair> model_pairs;
  std::vector<ElementId> model_answers;

  for (const ComparisonTask& task : batch) {
    TaskOutcome outcome;
    outcome.task = task;
    outcome.logical_step = logical_steps_;

    // Distinct workers per task, sampled uniformly from the pool.
    const std::vector<size_t> assigned = rng_.SampleWithoutReplacement(
        workers_.size(), static_cast<size_t>(votes_per_task));

    // Pass A, visit order: platform draws (gold coin, gold pick) and
    // worker-private draws (abandon, spam coin or slip, straggler) for
    // every assignment; shared-model queries are queued, not answered.
    task_assignments.clear();
    model_queue.clear();
    for (size_t widx : assigned) {
      SimulatedWorker& worker = workers_[widx];
      Assignment assignment;
      assignment.widx = widx;

      // Interleave a gold question with the configured probability; its
      // grade feeds this worker's trust score for all later aggregation.
      if (!gold_tasks_.empty() &&
          rng_.NextBernoulli(options_.gold_task_probability)) {
        assignment.has_gold = true;
        assignment.gold_task = gold_tasks_[rng_.NextBounded(gold_tasks_.size())];
        assignment.gold_pending = worker.BeginAnswer(assignment.gold_task);
        if (assignment.gold_pending.needs_model) {
          model_queue.push_back({worker.answer_model(), assignment.gold_task,
                                 task_assignments.size(), /*is_gold=*/true,
                                 -1});
        }
      }

      assignment.real_pending =
          faults ? worker.BeginRespond(task) : worker.BeginAnswer(task);
      if (assignment.real_pending.needs_model &&
          assignment.real_pending.disposition != VoteDisposition::kAbandoned) {
        model_queue.push_back({worker.answer_model(), task,
                               task_assignments.size(), /*is_gold=*/false,
                               -1});
      }
      task_assignments.push_back(assignment);
    }

    // Pass B: answer the queued model queries, batching each run of
    // consecutive same-model queries through GenerateVotes when the model
    // supports it. The queue is in visit order, so every model's stream
    // sees its draws in exactly the per-call order; heterogeneous pools
    // degrade to per-call runs at each model switch.
    size_t qi = 0;
    while (qi < model_queue.size()) {
      Comparator* model = model_queue[qi].model;
      size_t qe = qi + 1;
      while (qe < model_queue.size() && model_queue[qe].model == model) ++qe;
      if (VoteBatchComparator* model_batch = model->AsVoteBatch();
          model_batch != nullptr) {
        model_pairs.clear();
        for (size_t q = qi; q < qe; ++q) {
          model_pairs.emplace_back(model_queue[q].task.a,
                                   model_queue[q].task.b);
        }
        model_answers.resize(model_pairs.size());
        const int64_t produced =
            model_batch->GenerateVotes(model_pairs, model_answers);
        CROWDMAX_CHECK(produced == static_cast<int64_t>(model_pairs.size()));
        for (size_t q = qi; q < qe; ++q) {
          model_queue[q].model_answer = model_answers[q - qi];
        }
      } else {
        for (size_t q = qi; q < qe; ++q) {
          model_queue[q].model_answer =
              model->Compare(model_queue[q].task.a, model_queue[q].task.b);
        }
      }
      qi = qe;
    }
    auto resolve = [&](const Assignment& assignment, bool is_gold,
                       const PendingAnswer& pending,
                       const ComparisonTask& answered_task,
                       size_t* cursor) -> ElementId {
      if (!pending.needs_model) return pending.answer;
      // Model answers map back in queue (= visit) order.
      while (model_queue[*cursor].assignment !=
                 static_cast<size_t>(&assignment - task_assignments.data()) ||
             model_queue[*cursor].is_gold != is_gold) {
        ++*cursor;
      }
      return workers_[assignment.widx].FinishAnswer(
          pending, answered_task, model_queue[*cursor].model_answer);
    };

    // Pass C, visit order: grade gold answers, build the votes, account
    // dispositions — exactly the work the per-call loop did after each
    // worker answered.
    size_t cursor = 0;
    for (const Assignment& assignment : task_assignments) {
      SimulatedWorker& worker = workers_[assignment.widx];
      if (assignment.has_gold) {
        const ElementId gold_answer =
            resolve(assignment, /*is_gold=*/true, assignment.gold_pending,
                    assignment.gold_task, &cursor);
        gold_control_.RecordGoldAnswer(worker.id(), assignment.gold_task,
                                       gold_answer);
        ++gold_votes_;
        ++assignments;
      }

      Vote vote;
      vote.worker_id = worker.id();
      vote.disposition = assignment.real_pending.disposition;
      if (vote.disposition == VoteDisposition::kAbandoned) {
        // No vote ever arrived; billed nothing, but the assignment slot
        // was held until the deadline.
        ++fault_stats_.abandoned_votes;
      } else {
        vote.winner = resolve(assignment, /*is_gold=*/false,
                              assignment.real_pending, task, &cursor);
        if (vote.disposition == VoteDisposition::kDropped) {
          ++fault_stats_.straggler_votes;
        }
        ++total_votes_;
      }
      ++assignments;
      outcome.votes.push_back(vote);
    }

    // Aggregate: majority over in-time votes from currently trusted
    // workers. Fault losses (abandoned/dropped) are already final; gold
    // control demotes the rest.
    int64_t wins_a = 0;
    int64_t counted = 0;
    for (Vote& vote : outcome.votes) {
      if (vote.disposition == VoteDisposition::kAbandoned ||
          vote.disposition == VoteDisposition::kDropped) {
        vote.counted = false;
        continue;
      }
      vote.counted = gold_control_.IsTrusted(vote.worker_id);
      if (!vote.counted) {
        vote.disposition = VoteDisposition::kDiscarded;
        ++discarded_votes_;
        continue;
      }
      ++counted;
      if (vote.winner == task.a) ++wins_a;
    }
    outcome.counted_votes = counted;
    if (faults && counted == 0) {
      // Every vote was lost or distrusted: under the fault model the task
      // is reported unresolved for the recovery layer to re-issue, instead
      // of being silently resolved by a platform coin.
      outcome.disposition = TaskDisposition::kDropped;
      outcome.majority_winner = -1;
      outcome.unanimous = false;
      ++fault_stats_.dropped_tasks;
    } else if (counted == 0) {
      // Every assigned worker is distrusted; the paper's platform would
      // re-post the task — we resolve it with a platform coin flip and
      // flag it via counted_votes == 0.
      outcome.majority_winner = rng_.NextBernoulli(0.5) ? task.a : task.b;
      outcome.unanimous = false;
    } else {
      if (2 * wins_a > counted) {
        outcome.majority_winner = task.a;
        outcome.unanimous = wins_a == counted;
      } else if (2 * wins_a < counted) {
        outcome.majority_winner = task.b;
        outcome.unanimous = wins_a == 0;
      } else {
        // Tie: "an arbitrary element in case of a tie" (Section 2).
        outcome.majority_winner = rng_.NextBernoulli(0.5) ? task.a : task.b;
        outcome.unanimous = false;
      }
      if (faults && counted < options_.fault.min_quorum) {
        outcome.disposition = TaskDisposition::kNoQuorum;
        ++fault_stats_.no_quorum_tasks;
      }
    }
    outcomes.push_back(std::move(outcome));
  }

  // Physical-step accounting: the pool clears `num_workers * capacity`
  // assignments per physical step.
  const int64_t capacity =
      num_workers() * options_.worker_capacity_per_physical_step;
  physical_steps_ += (assignments + capacity - 1) / capacity;

  if (options_.record_transcript) {
    transcript_.insert(transcript_.end(), outcomes.begin(), outcomes.end());
  }

  if (MetricsEnabled()) {
    MetricsRegistry* registry = MetricsRegistry::Default();
    static Counter* steps =
        registry->GetCounter("crowdmax.platform.logical_steps");
    static Counter* tasks = registry->GetCounter("crowdmax.platform.tasks");
    static Counter* votes = registry->GetCounter("crowdmax.platform.votes");
    static Counter* discarded =
        registry->GetCounter("crowdmax.platform.discarded_votes");
    static Counter* gold =
        registry->GetCounter("crowdmax.platform.gold_votes");
    static Counter* abandoned =
        registry->GetCounter("crowdmax.platform.abandoned_votes");
    static Counter* stragglers =
        registry->GetCounter("crowdmax.platform.straggler_votes");
    static Counter* dropped =
        registry->GetCounter("crowdmax.platform.dropped_tasks");
    static Counter* no_quorum =
        registry->GetCounter("crowdmax.platform.no_quorum_tasks");
    steps->Increment();
    tasks->Add(static_cast<int64_t>(batch.size()));
    votes->Add(total_votes_ - votes_before);
    discarded->Add(discarded_votes_ - discarded_before);
    gold->Add(gold_votes_ - gold_before);
    abandoned->Add(fault_stats_.abandoned_votes -
                   fault_stats_before.abandoned_votes);
    stragglers->Add(fault_stats_.straggler_votes -
                    fault_stats_before.straggler_votes);
    dropped->Add(fault_stats_.dropped_tasks -
                 fault_stats_before.dropped_tasks);
    no_quorum->Add(fault_stats_.no_quorum_tasks -
                   fault_stats_before.no_quorum_tasks);
  }
  return outcomes;
}

Status CrowdPlatform::ExportTranscriptCsv(std::ostream& out) const {
  return ExportTranscriptCsv(out, nullptr);
}

Status CrowdPlatform::ExportTranscriptCsv(
    std::ostream& out,
    const std::function<std::string(ElementId)>& labeler) const {
  if (!options_.record_transcript) {
    return Status::FailedPrecondition(
        "transcript recording was not enabled (PlatformOptions::"
        "record_transcript)");
  }
  const bool labeled = static_cast<bool>(labeler);
  out << "logical_step,a,b,";
  if (labeled) out << "label_a,label_b,";
  out << "worker_id,vote,counted,majority_winner,"
         "unanimous,vote_disposition,task_disposition,retry_after_steps\n";
  for (const TaskOutcome& outcome : transcript_) {
    // Labels (and, defensively, the disposition names) go through RFC-4180
    // escaping: dataset-derived item names may contain commas, quotes or
    // newlines, and a raw write would shear the row apart.
    std::string labels;
    if (labeled) {
      labels = CsvEscape(labeler(outcome.task.a)) + ',' +
               CsvEscape(labeler(outcome.task.b)) + ',';
    }
    for (const Vote& vote : outcome.votes) {
      out << outcome.logical_step << ',' << outcome.task.a << ','
          << outcome.task.b << ',' << labels << vote.worker_id << ','
          << vote.winner << ',' << (vote.counted ? 1 : 0) << ','
          << outcome.majority_winner << ',' << (outcome.unanimous ? 1 : 0)
          << ',' << CsvEscape(VoteDispositionName(vote.disposition)) << ','
          << CsvEscape(TaskDispositionName(outcome.disposition)) << ','
          // Disposition-level retry hint: an answered task needs no retry;
          // a dropped or no-quorum task is expected to resolve when
          // re-issued one logical step later.
          << (outcome.disposition == TaskDisposition::kAnswered ? 0 : 1)
          << '\n';
    }
  }
  return Status::OK();
}

namespace {

Status ValidateAdapterArgs(const CrowdPlatform* platform,
                           int64_t votes_per_task) {
  if (platform == nullptr) {
    return Status::InvalidArgument("platform must not be null");
  }
  if (votes_per_task < 1 || votes_per_task > platform->num_workers()) {
    return Status::InvalidArgument(
        "votes_per_task must be in [1, num_workers]");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PlatformComparator>> PlatformComparator::Create(
    CrowdPlatform* platform, int64_t votes_per_task) {
  if (Status status = ValidateAdapterArgs(platform, votes_per_task);
      !status.ok()) {
    return status;
  }
  return std::unique_ptr<PlatformComparator>(
      new PlatformComparator(platform, votes_per_task));
}

PlatformComparator::PlatformComparator(CrowdPlatform* platform,
                                       int64_t votes_per_task)
    : platform_(platform),
      votes_per_task_(votes_per_task),
      fallback_rng_(0x9e3779b97f4a7c15ULL ^
                    static_cast<uint64_t>(votes_per_task)) {
  CROWDMAX_CHECK(platform != nullptr);
  CROWDMAX_CHECK(votes_per_task >= 1 &&
                 votes_per_task <= platform->num_workers());
}

ElementId PlatformComparator::DoCompare(ElementId a, ElementId b) {
  // The Comparator contract is total, so the adapter absorbs faults with a
  // small bounded retry loop. A no-quorum outcome still carries a
  // provisional majority and is accepted; only transient errors and fully
  // dropped tasks are retried. After the budget, a deterministic private
  // coin resolves the comparison (prefer ResilientBatchExecutor for
  // typed, reported degradation).
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Result<std::vector<TaskOutcome>> outcome =
        platform_->SubmitBatch({{a, b}}, votes_per_task_);
    if (!outcome.ok()) {
      // Arguments were validated at construction; a non-transient failure
      // here means the platform contract is broken.
      CROWDMAX_CHECK(outcome.status().code() == StatusCode::kUnavailable);
      continue;
    }
    const TaskOutcome& task = outcome->front();
    if (task.disposition != TaskDisposition::kDropped) {
      return task.majority_winner;
    }
  }
  return fallback_rng_.NextBernoulli(0.5) ? a : b;
}

Result<std::unique_ptr<PlatformBatchExecutor>> PlatformBatchExecutor::Create(
    CrowdPlatform* platform, int64_t votes_per_task) {
  if (Status status = ValidateAdapterArgs(platform, votes_per_task);
      !status.ok()) {
    return status;
  }
  return std::unique_ptr<PlatformBatchExecutor>(
      new PlatformBatchExecutor(platform, votes_per_task));
}

PlatformBatchExecutor::PlatformBatchExecutor(CrowdPlatform* platform,
                                             int64_t votes_per_task)
    : platform_(platform), votes_per_task_(votes_per_task) {
  CROWDMAX_CHECK(platform != nullptr);
  CROWDMAX_CHECK(votes_per_task >= 1 &&
                 votes_per_task <= platform->num_workers());
  ResetCounters();
}

void PlatformBatchExecutor::ResetCounters() {
  BatchExecutor::ResetCounters();
  votes_snapshot_ = platform_->total_votes();
  logical_steps_snapshot_ = platform_->logical_steps();
  physical_steps_snapshot_ = platform_->physical_steps();
  discarded_votes_snapshot_ = platform_->discarded_votes();
  executor_votes_ = 0;
  executor_discarded_votes_ = 0;
  pending_latency_micros_ = 0;
}

int64_t PlatformBatchExecutor::TakeSimulatedLatencyMicros() {
  const int64_t micros = pending_latency_micros_;
  pending_latency_micros_ = 0;
  return micros;
}

void PlatformBatchExecutor::AccountOwnSubmission(
    const std::vector<TaskOutcome>& outcomes) {
  // Read the latency of *this* submission immediately, before any other
  // executor sharing the platform submits and overwrites the last-batch
  // value. The same holds for the vote tallies: they come from this
  // submission's own outcomes, never from platform-wide deltas, so
  // interleaved executors attribute exactly.
  pending_latency_micros_ += platform_->last_batch_latency_micros();
  for (const TaskOutcome& outcome : outcomes) {
    for (const Vote& vote : outcome.votes) {
      if (vote.disposition == VoteDisposition::kAbandoned) continue;
      ++executor_votes_;
      if (vote.disposition == VoteDisposition::kDiscarded) {
        ++executor_discarded_votes_;
      }
    }
  }
}

int64_t PlatformBatchExecutor::platform_votes_since_reset() const {
  return platform_->total_votes() - votes_snapshot_;
}

int64_t PlatformBatchExecutor::platform_logical_steps_since_reset() const {
  return platform_->logical_steps() - logical_steps_snapshot_;
}

int64_t PlatformBatchExecutor::platform_physical_steps_since_reset() const {
  return platform_->physical_steps() - physical_steps_snapshot_;
}

int64_t PlatformBatchExecutor::platform_discarded_votes_since_reset() const {
  return platform_->discarded_votes() - discarded_votes_snapshot_;
}

Result<std::vector<BatchTaskResult>> PlatformBatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  std::vector<ComparisonTask> batch;
  batch.reserve(tasks.size());
  for (const ComparisonPair& task : tasks) {
    batch.push_back({task.first, task.second});
  }
  Result<std::vector<TaskOutcome>> outcomes =
      platform_->SubmitBatch(batch, votes_per_task_);
  if (!outcomes.ok()) {
    // A rejected submission still wasted its round trip; bank the latency
    // so the caller pays it (or overlaps it) like any other.
    pending_latency_micros_ += platform_->last_batch_latency_micros();
    return outcomes.status();
  }
  AccountOwnSubmission(*outcomes);
  std::vector<BatchTaskResult> results;
  results.reserve(outcomes->size());
  for (const TaskOutcome& outcome : *outcomes) {
    BatchTaskResult result;
    result.winner = outcome.majority_winner;
    result.answered = outcome.disposition == TaskDisposition::kAnswered;
    result.counted_votes = outcome.counted_votes;
    results.push_back(result);
  }
  return results;
}

}  // namespace crowdmax
