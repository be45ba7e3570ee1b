// Tests for the fault-tolerant execution layer (core/resilient.h): retry
// resolution, relaxed quorum, graceful degradation, typed exhaustion, the
// partial-result contract of the queries on executor stacks, and
// determinism of injected faults across thread counts.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batched.h"
#include "core/comparator.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/maxfind.h"
#include "core/resilient.h"
#include "core/trace.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

// Test double with a scripted fallible path: call k of TryExecuteBatch
// behaves per script[k] (the last entry repeats). Winners are always the
// larger id, so expectations are self-evident.
class ScriptedExecutor : public BatchExecutor {
 public:
  enum class Call {
    kAnswerAll,      // every task answered, counted_votes = 5
    kUnansweredAll,  // provisional majority, answered = false, 1 vote
    kUnavailable,    // whole submission fails transiently
    kInvalidArgument,  // non-transient failure
  };

  explicit ScriptedExecutor(std::vector<Call> script)
      : script_(std::move(script)) {
    CROWDMAX_CHECK(!script_.empty());
  }

  int64_t calls() const { return calls_; }

 private:
  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override {
    const Call call =
        script_[std::min(static_cast<size_t>(calls_), script_.size() - 1)];
    ++calls_;
    switch (call) {
      case Call::kUnavailable:
        return Status::Unavailable("scripted outage");
      case Call::kInvalidArgument:
        return Status::InvalidArgument("scripted contract violation");
      case Call::kUnansweredAll: {
        std::vector<BatchTaskResult> out;
        out.reserve(tasks.size());
        for (const ComparisonPair& task : tasks) {
          out.push_back({std::max(task.first, task.second), false, 1});
        }
        return out;
      }
      case Call::kAnswerAll:
        break;
    }
    std::vector<BatchTaskResult> out;
    out.reserve(tasks.size());
    for (const ComparisonPair& task : tasks) {
      out.push_back({std::max(task.first, task.second), true, 5});
    }
    return out;
  }

  std::vector<Call> script_;
  int64_t calls_ = 0;
};

using Call = ScriptedExecutor::Call;

const std::vector<ComparisonPair> kTwoTasks = {{0, 1}, {2, 3}};

TEST(BatchExecutorTest, DefaultTryPathAnswersEverything) {
  Instance instance({1.0, 2.0, 3.0});
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);

  Result<std::vector<BatchTaskResult>> results =
      executor.TryExecuteBatch({{0, 2}, {1, 2}});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  for (const BatchTaskResult& result : *results) {
    EXPECT_TRUE(result.answered);
    EXPECT_EQ(result.winner, 2);
    EXPECT_EQ(result.counted_votes, -1);
  }
  EXPECT_EQ(executor.logical_steps(), 1);
  EXPECT_EQ(executor.comparisons(), 2);

  // Empty batches cost nothing on the fallible path either.
  ASSERT_TRUE(executor.TryExecuteBatch({}).ok());
  EXPECT_EQ(executor.logical_steps(), 1);
}

TEST(BatchExecutorTest, ResetCountersIsVirtualThroughBasePointer) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  ASSERT_TRUE(executor.TryExecuteBatch({{0, 1}}).ok());
  BatchExecutor* base = &executor;
  EXPECT_EQ(base->fault_report(), nullptr);
  base->ResetCounters();
  EXPECT_EQ(base->logical_steps(), 0);
  EXPECT_EQ(base->comparisons(), 0);
}

TEST(BatchExecutorTest, PartialBatchChargesExactlyTheVotesProduced) {
  // Regression for the batch-path accounting audit (DESIGN.md §14): a
  // GenerateVotes call stopped short by an invalid pair must charge only
  // the votes actually produced — never the requested batch size — and a
  // ResetCount in between must not resurrect the unanswered remainder.
  Instance instance({1.0, 2.0, 3.0, 4.0});
  ThresholdComparator cmp(&instance, ThresholdModel{0.5, 0.1}, /*seed=*/77);
  VoteBatchComparator* batch = cmp.AsVoteBatch();
  ASSERT_NE(batch, nullptr);

  const std::vector<ComparisonPair> pairs = {{0, 3}, {1, 2}, {-1, 2}, {0, 1}};
  std::vector<ElementId> out(pairs.size(), -7);
  EXPECT_EQ(batch->GenerateVotes(pairs, out), 2);
  EXPECT_EQ(cmp.num_comparisons(), 2);

  cmp.ResetCount();
  std::vector<ComparisonPair> valid = {{0, 3}, {1, 2}, {0, 1}};
  std::vector<ElementId> winners(valid.size());
  EXPECT_EQ(batch->GenerateVotes(valid, winners), 3);
  EXPECT_EQ(cmp.num_comparisons(), 3);
}

TEST(BatchExecutorTest, BatchedExecutorAndComparatorCountersAgree) {
  // ComparatorBatchExecutor charges itself tasks.size() while the batch
  // comparator charges itself inside GenerateVotes; the two counters must
  // stay equal — a divergence means a batch was double- or under-billed.
  Instance instance({1.0, 2.0, 3.0, 4.0, 5.0});
  ThresholdComparator cmp(&instance, ThresholdModel{0.5, 0.1}, /*seed=*/78);
  ComparatorBatchExecutor executor(&cmp);
  ASSERT_TRUE(executor.TryExecuteBatch({{0, 1}, {2, 3}, {1, 4}}).ok());
  ASSERT_TRUE(executor.TryExecuteBatch({{0, 4}}).ok());
  EXPECT_EQ(executor.comparisons(), 4);
  EXPECT_EQ(cmp.num_comparisons(), 4);

  executor.ResetCounters();
  cmp.ResetCount();
  ASSERT_TRUE(executor.TryExecuteBatch({{2, 4}}).ok());
  EXPECT_EQ(executor.comparisons(), 1);
  EXPECT_EQ(cmp.num_comparisons(), 1);
}

TEST(ResilientExecutorTest, CreateValidation) {
  ScriptedExecutor inner({Call::kAnswerAll});
  EXPECT_FALSE(ResilientBatchExecutor::Create(nullptr, {}).ok());
  ResilientOptions bad;
  bad.max_retries = -1;
  EXPECT_FALSE(ResilientBatchExecutor::Create(&inner, bad).ok());
  bad = {};
  bad.min_votes = 0;
  EXPECT_FALSE(ResilientBatchExecutor::Create(&inner, bad).ok());
  bad = {};
  bad.backoff_base_steps = -1;
  EXPECT_FALSE(ResilientBatchExecutor::Create(&inner, bad).ok());
  EXPECT_TRUE(ResilientBatchExecutor::Create(&inner, {}).ok());
}

TEST(ResilientExecutorTest, RetriesAbsorbTransientOutages) {
  ScriptedExecutor inner({Call::kUnavailable, Call::kUnavailable,
                          Call::kAnswerAll});
  auto resilient = ResilientBatchExecutor::Create(&inner, {});
  ASSERT_TRUE(resilient.ok());

  Result<std::vector<BatchTaskResult>> results =
      (*resilient)->TryExecuteBatch(kTwoTasks);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0].winner, 1);
  EXPECT_EQ((*results)[1].winner, 3);
  const FaultReport& report = (*resilient)->report();
  EXPECT_EQ(report.batches, 1);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.transient_errors, 2);
  EXPECT_FALSE(report.exhausted);
  // Caller-visible accounting: one batch, one step; the retries are the
  // recovery's cost, not the caller's.
  EXPECT_EQ((*resilient)->logical_steps(), 1);
}

TEST(ResilientExecutorTest, RetriesReissueUnansweredTasks) {
  ScriptedExecutor inner({Call::kUnansweredAll, Call::kAnswerAll});
  ResilientOptions options;
  options.min_votes = 3;  // Above the scripted 1 vote: no relaxed accept.
  auto resilient = ResilientBatchExecutor::Create(&inner, options);
  ASSERT_TRUE(resilient.ok());

  Result<std::vector<BatchTaskResult>> results =
      (*resilient)->TryExecuteBatch(kTwoTasks);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE((*results)[0].answered);
  EXPECT_TRUE((*results)[1].answered);
  const FaultReport& report = (*resilient)->report();
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.votes_lost, 2);
  EXPECT_EQ(report.retried_tasks, 2);
  EXPECT_EQ(report.relaxed_accepts, 0);
  // The re-issue cost one extra inner step plus the first backoff wait.
  EXPECT_EQ(report.backoff_steps, 1);
  EXPECT_EQ(report.steps_added, 2);
}

// Regression for the retry double-/under-charging bug: comparisons() must
// record the true crowd spend — every task of every attempt, once each —
// matching the inner executor's dispatch count exactly.
TEST(ResilientExecutorTest, EveryRetryAttemptChargedExactlyOnce) {
  ScriptedExecutor inner({Call::kUnansweredAll, Call::kAnswerAll});
  ResilientOptions options;
  options.min_votes = 3;  // Above the scripted 1 vote: forces a re-issue.
  auto resilient = ResilientBatchExecutor::Create(&inner, options);
  ASSERT_TRUE(resilient.ok());

  AlgoTrace trace;
  {
    ScopedTrace scope(&trace);
    ASSERT_TRUE((*resilient)->TryExecuteBatch(kTwoTasks).ok());
  }
  // 2 tasks on the first attempt + 2 re-issued = 4 dispatched inner-side.
  EXPECT_EQ(inner.comparisons(), 4);
  EXPECT_EQ((*resilient)->comparisons(), 4);
  EXPECT_EQ((*resilient)->logical_steps(), 1);

  // The trace sees the same spend cell-by-cell: 2 no-quorum returns, 2
  // answered re-buys, 2 retry re-issues — and the auditor identity holds.
  const TraceCellCounts totals = trace.Totals();
  EXPECT_EQ(totals.dispatched, 4);
  EXPECT_EQ(totals.answered, 2);
  EXPECT_EQ(totals.no_quorum, 2);
  EXPECT_EQ(totals.retries, 2);
  MetricsAuditor auditor(&trace);
  auditor.ExpectDispatchedTotal((*resilient)->comparisons());
  EXPECT_TRUE(auditor.Check().ok());
}

TEST(ResilientExecutorTest, ExhaustedBatchesStillChargeEveryAttempt) {
  ScriptedExecutor inner({Call::kUnansweredAll});
  ResilientOptions options;
  options.max_retries = 2;
  options.min_votes = 3;
  auto resilient = ResilientBatchExecutor::Create(&inner, options);
  ASSERT_TRUE(resilient.ok());

  ASSERT_FALSE((*resilient)->TryExecuteBatch(kTwoTasks).ok());
  // The batch failed — no logical step for the caller — but the crowd was
  // still paid for 3 attempts x 2 tasks.
  EXPECT_EQ(inner.comparisons(), 6);
  EXPECT_EQ((*resilient)->comparisons(), 6);
  EXPECT_EQ((*resilient)->logical_steps(), 0);
}

TEST(ResilientExecutorTest, FailedSubmissionsAreNotCharged) {
  ScriptedExecutor inner({Call::kUnavailable, Call::kAnswerAll});
  auto resilient = ResilientBatchExecutor::Create(&inner, {});
  ASSERT_TRUE(resilient.ok());
  ASSERT_TRUE((*resilient)->TryExecuteBatch(kTwoTasks).ok());
  // The outage attempt dispatched nothing; only the successful re-submit
  // is crowd spend.
  EXPECT_EQ(inner.comparisons(), 2);
  EXPECT_EQ((*resilient)->comparisons(), 2);
}

TEST(ResilientExecutorTest, NonTransientFailureChargesWhatWasDispatched) {
  ScriptedExecutor inner({Call::kInvalidArgument});
  auto resilient = ResilientBatchExecutor::Create(&inner, {});
  ASSERT_TRUE(resilient.ok());
  ASSERT_FALSE((*resilient)->TryExecuteBatch(kTwoTasks).ok());
  EXPECT_EQ(inner.comparisons(), 0);
  EXPECT_EQ((*resilient)->comparisons(), 0);
}

// The end-to-end version of the charging regression: over a real faulty
// platform with a billing transcript, the resilient wrapper's comparison
// count must equal the inner dispatch count and the number of tasks the
// platform billed (one transcript entry per submitted task, retries
// included).
TEST(ResilientExecutorTest, ComparisonsMatchPlatformTranscriptUnderFaults) {
  Result<Instance> instance = UniformInstance(30, /*seed=*/51);
  ASSERT_TRUE(instance.ok());
  OracleComparator crowd(&*instance);

  FaultOptions fault;
  fault.abandon_probability = 0.3;
  fault.min_quorum = 2;
  fault.seed = 9;
  PlatformOptions options;
  options.num_workers = 20;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  options.gold_task_probability = 0.0;
  options.record_transcript = true;
  options.seed = 10;
  options.fault = fault;
  auto platform = CrowdPlatform::Create(&crowd, &*instance, {}, options);
  ASSERT_TRUE(platform.ok());
  auto inner = PlatformBatchExecutor::Create(platform->get(), /*votes=*/3);
  ASSERT_TRUE(inner.ok());

  ResilientOptions recovery;
  recovery.max_retries = 8;
  recovery.min_votes = 2;
  recovery.fallback = SmallerIdFallback;
  auto resilient = ResilientBatchExecutor::Create(inner->get(), recovery);
  ASSERT_TRUE(resilient.ok());

  FilterOptions filter;
  filter.u_n = 3;
  Result<FilterResult> result = FilterCandidates(
      instance->AllElements(), filter, resilient->get());
  ASSERT_TRUE(result.ok());
  ASSERT_GT((*resilient)->report().retried_tasks, 0);

  EXPECT_EQ((*resilient)->comparisons(), (*inner)->comparisons());
  EXPECT_EQ((*resilient)->comparisons(),
            static_cast<int64_t>((*platform)->transcript().size()));
}

TEST(ResilientExecutorTest, RelaxedQuorumAcceptsProvisionalMajorities) {
  ScriptedExecutor inner({Call::kUnansweredAll, Call::kAnswerAll});
  ResilientOptions options;
  options.min_votes = 1;  // The scripted partials carry 1 vote: accept.
  auto resilient = ResilientBatchExecutor::Create(&inner, options);
  ASSERT_TRUE(resilient.ok());

  Result<std::vector<BatchTaskResult>> results =
      (*resilient)->TryExecuteBatch(kTwoTasks);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE((*results)[0].answered);
  EXPECT_EQ((*results)[0].winner, 1);
  const FaultReport& report = (*resilient)->report();
  EXPECT_EQ(report.attempts, 1);  // Nothing was re-bought.
  EXPECT_EQ(report.relaxed_accepts, 2);
  EXPECT_EQ(report.retried_tasks, 0);
}

TEST(ResilientExecutorTest, ExhaustionReturnsTypedStatusWithReport) {
  ScriptedExecutor inner({Call::kUnansweredAll});
  ResilientOptions options;
  options.max_retries = 2;
  options.min_votes = 3;
  auto resilient = ResilientBatchExecutor::Create(&inner, options);
  ASSERT_TRUE(resilient.ok());

  Result<std::vector<BatchTaskResult>> results =
      (*resilient)->TryExecuteBatch(kTwoTasks);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(results.status().message().find("retry budget exhausted"),
            std::string::npos);
  const FaultReport& report = (*resilient)->report();
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.attempts, 3);  // 1 initial + max_retries.
  EXPECT_EQ(report.retried_tasks, 4);
  EXPECT_EQ(report.last_error.code(), StatusCode::kUnavailable);
  EXPECT_NE(report.ToString().find("exhausted"), std::string::npos);
  // A failed batch is not charged to the caller.
  EXPECT_EQ((*resilient)->logical_steps(), 0);
}

TEST(ResilientExecutorTest, FallbackDegradesGracefully) {
  ScriptedExecutor inner({Call::kUnansweredAll});
  ResilientOptions options;
  options.max_retries = 1;
  options.min_votes = 3;
  options.fallback = SmallerIdFallback;
  auto resilient = ResilientBatchExecutor::Create(&inner, options);
  ASSERT_TRUE(resilient.ok());

  Result<std::vector<BatchTaskResult>> results =
      (*resilient)->TryExecuteBatch(kTwoTasks);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE((*results)[0].answered);
  EXPECT_EQ((*results)[0].winner, 0);  // SmallerIdFallback.
  EXPECT_EQ((*results)[1].winner, 2);
  EXPECT_EQ((*results)[0].counted_votes, 0);  // No crowd evidence.
  const FaultReport& report = (*resilient)->report();
  EXPECT_EQ(report.degraded_tasks, 2);
  EXPECT_FALSE(report.exhausted);
}

TEST(ResilientExecutorTest, NonTransientErrorsPropagateWithoutRetry) {
  ScriptedExecutor inner({Call::kInvalidArgument});
  auto resilient = ResilientBatchExecutor::Create(&inner, {});
  ASSERT_TRUE(resilient.ok());

  Result<std::vector<BatchTaskResult>> results =
      (*resilient)->TryExecuteBatch(kTwoTasks);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(inner.calls(), 1);  // Retrying a contract violation is useless.
}

TEST(ResilientExecutorTest, ResetCountersClearsReport) {
  ScriptedExecutor inner({Call::kUnavailable, Call::kAnswerAll});
  auto resilient = ResilientBatchExecutor::Create(&inner, {});
  ASSERT_TRUE(resilient.ok());
  ASSERT_TRUE((*resilient)->TryExecuteBatch(kTwoTasks).ok());
  ASSERT_GT((*resilient)->report().attempts, 0);

  (*resilient)->ResetCounters();
  EXPECT_EQ((*resilient)->logical_steps(), 0);
  EXPECT_EQ((*resilient)->report().attempts, 0);
  EXPECT_EQ((*resilient)->report().transient_errors, 0);
}

TEST(ResilientExecutorTest, FaultReportVisibleThroughBaseInterface) {
  ScriptedExecutor inner({Call::kAnswerAll});
  auto resilient = ResilientBatchExecutor::Create(&inner, {});
  ASSERT_TRUE(resilient.ok());
  BatchExecutor* base = resilient->get();
  ASSERT_NE(base->fault_report(), nullptr);
  EXPECT_EQ(base->fault_report(), &(*resilient)->report());
}

TEST(FaultInjectingExecutorTest, CreateValidation) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor inner(&oracle);
  EXPECT_FALSE(FaultInjectingBatchExecutor::Create(nullptr, {}).ok());
  InjectedFaultOptions bad;
  bad.drop_probability = 1.0;
  EXPECT_FALSE(FaultInjectingBatchExecutor::Create(&inner, bad).ok());
  bad = {};
  bad.partial_votes = 0;
  EXPECT_FALSE(FaultInjectingBatchExecutor::Create(&inner, bad).ok());
  EXPECT_TRUE(FaultInjectingBatchExecutor::Create(&inner, {}).ok());
}

TEST(FaultInjectingExecutorTest, InjectsDeterministicFaults) {
  Instance instance({1.0, 2.0, 3.0, 4.0});
  auto run = [&] {
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor inner(&oracle);
    InjectedFaultOptions options;
    options.drop_probability = 0.3;
    options.no_quorum_probability = 0.2;
    options.seed = 11;
    auto injector = FaultInjectingBatchExecutor::Create(&inner, options);
    CROWDMAX_CHECK(injector.ok());
    std::vector<bool> answered;
    for (int round = 0; round < 20; ++round) {
      auto results = (*injector)->TryExecuteBatch({{0, 1}, {1, 2}, {2, 3}});
      CROWDMAX_CHECK(results.ok());
      for (const BatchTaskResult& result : *results) {
        answered.push_back(result.answered);
      }
    }
    return std::make_pair(answered, (*injector)->injected_drops());
  };
  const auto first = run();
  EXPECT_GT(first.second, 0);
  EXPECT_NE(std::count(first.first.begin(), first.first.end(), true), 0);
  EXPECT_EQ(first, run());  // Same seed, same injected pattern.
}

// The acceptance bar for thread-safety of the recovery stack: resilient
// execution over injected faults over the parallel engine must produce
// bit-identical results and accounting at 1 and 8 threads.
TEST(ResilientExecutorTest, BitIdenticalAcrossThreadCounts) {
  Result<Instance> instance = UniformInstance(80, /*seed=*/31);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(6);

  struct RunOutcome {
    ElementId best;
    bool partial;
    int64_t steps;
    int64_t attempts;
    int64_t retried;
    int64_t relaxed;
    int64_t drops;
    bool operator==(const RunOutcome& o) const {
      return best == o.best && partial == o.partial && steps == o.steps &&
             attempts == o.attempts && retried == o.retried &&
             relaxed == o.relaxed && drops == o.drops;
    }
  };
  auto run = [&](int64_t threads) {
    ThresholdComparator comparator(&*instance, ThresholdModel{delta, 0.0},
                                   /*seed=*/32);
    auto parallel = ParallelBatchExecutor::Create(&comparator, threads,
                                                  /*seed=*/33,
                                                  /*chunk_size=*/16);
    CROWDMAX_CHECK(parallel.ok());
    InjectedFaultOptions fault_options;
    fault_options.drop_probability = 0.15;
    fault_options.no_quorum_probability = 0.1;
    fault_options.unavailable_probability = 0.05;
    fault_options.partial_votes = 2;
    fault_options.seed = 34;
    auto injector =
        FaultInjectingBatchExecutor::Create(parallel->get(), fault_options);
    CROWDMAX_CHECK(injector.ok());
    ResilientOptions resilient_options;
    resilient_options.max_retries = 8;
    resilient_options.min_votes = 2;
    auto resilient =
        ResilientBatchExecutor::Create(injector->get(), resilient_options);
    CROWDMAX_CHECK(resilient.ok());

    Result<MaxFindResult> result =
        TwoMaxFind(instance->AllElements(), resilient->get());
    CROWDMAX_CHECK(result.ok());
    const FaultReport& report = (*resilient)->report();
    return RunOutcome{result->best,    result->partial,
                      result->logical_steps,   report.attempts,
                      report.retried_tasks,    report.relaxed_accepts,
                      (*injector)->injected_drops()};
  };

  const RunOutcome serial = run(1);
  const RunOutcome parallel = run(8);
  EXPECT_TRUE(serial == parallel);
  EXPECT_FALSE(serial.partial);
  // Faults were recovered, so Lemma 3's guarantee must still hold.
  EXPECT_LE(instance->Distance(serial.best, instance->MaxElement()),
            2.0 * delta + 1e-12);
}

// Partial-result contract: when the recovery budget is exhausted with no
// fallback, the batched algorithms return survivors-so-far plus the typed
// status instead of aborting.
TEST(BatchedPartialResultTest, FilterReturnsSurvivorsOnExhaustedBudget) {
  ScriptedExecutor inner({Call::kUnansweredAll});
  ResilientOptions options;
  options.max_retries = 1;
  options.min_votes = 3;
  auto resilient = ResilientBatchExecutor::Create(&inner, options);
  ASSERT_TRUE(resilient.ok());

  std::vector<ElementId> items;
  for (ElementId e = 0; e < 12; ++e) items.push_back(e);
  FilterOptions filter;
  filter.u_n = 1;
  Result<FilterResult> result =
      FilterCandidates(items, filter, resilient->get());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->fault_status.code(), StatusCode::kUnavailable);
  // No evidence arrived, so nothing was (wrongly) eliminated.
  EXPECT_EQ(result->candidates, items);
}

TEST(BatchedPartialResultTest, TwoMaxFindReturnsSurvivorsOnExhaustedBudget) {
  ScriptedExecutor inner({Call::kUnansweredAll});
  ResilientOptions options;
  options.max_retries = 1;
  options.min_votes = 3;
  auto resilient = ResilientBatchExecutor::Create(&inner, options);
  ASSERT_TRUE(resilient.ok());

  std::vector<ElementId> items;
  for (ElementId e = 0; e < 12; ++e) items.push_back(e);
  Result<MaxFindResult> result =
      TwoMaxFind(items, resilient->get());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->fault_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result->best, -1);
  EXPECT_EQ(result->survivors, items);
  EXPECT_TRUE((*resilient)->report().exhausted);
}

TEST(BatchedPartialResultTest, ExpertPhaseStillRunsAfterPartialFilter) {
  // Phase 1 exhausts its budget immediately; phase 2 is healthy. The
  // conservative filter keeps everything, so the experts still find the
  // true maximum — the run is flagged partial with both reports attached.
  ScriptedExecutor naive_inner({Call::kUnansweredAll});
  ResilientOptions naive_options;
  naive_options.max_retries = 1;
  naive_options.min_votes = 3;
  auto naive = ResilientBatchExecutor::Create(&naive_inner, naive_options);
  ASSERT_TRUE(naive.ok());

  ScriptedExecutor expert_inner({Call::kAnswerAll});
  auto expert = ResilientBatchExecutor::Create(&expert_inner, {});
  ASSERT_TRUE(expert.ok());

  std::vector<ElementId> items;
  for (ElementId e = 0; e < 12; ++e) items.push_back(e);
  ExpertMaxOptions options;
  options.filter.u_n = 2;
  Result<ExpertMaxResult> result =
      FindMaxWithExperts(items, naive->get(), expert->get(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->fault_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result->candidates, items);
  EXPECT_EQ(result->best, 11);  // ScriptedExecutor: larger id wins.
  ASSERT_TRUE(result->naive_faults.has_value());
  ASSERT_TRUE(result->expert_faults.has_value());
  EXPECT_TRUE(result->naive_faults->exhausted);
  EXPECT_FALSE(result->expert_faults->exhausted);
}

}  // namespace
}  // namespace crowdmax
