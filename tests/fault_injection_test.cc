// Tests for the platform-level fault model (FaultOptions): abandonment,
// stragglers, churn, transient unavailability, quorum dispositions, seeded
// replay, and the end-to-end acceptance runs — Algorithm 1 over
// ResilientBatchExecutor on faulty DOTS and CARS platforms.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batched.h"
#include "core/comparator.h"
#include "core/expert_max.h"
#include "core/instance.h"
#include "core/resilient.h"
#include "core/worker_model.h"
#include "datasets/cars.h"
#include "datasets/dots.h"
#include "datasets/instances.h"
#include "platform/platform.h"
#include "platform/worker.h"

namespace crowdmax {
namespace {

TEST(SimulatedWorkerFaultTest, AbandonsAndStragglesAtConfiguredRates) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  SimulatedWorker::Options options;
  options.abandon_probability = 0.3;
  options.straggler_probability = 0.2;
  SimulatedWorker worker(0, &oracle, options, /*seed=*/21);

  constexpr int kTrials = 400;
  for (int i = 0; i < kTrials; ++i) {
    const WorkerResponse response = worker.Respond({0, 1});
    switch (response.disposition) {
      case VoteDisposition::kAbandoned:
        EXPECT_EQ(response.winner, -1);  // No answer ever arrived.
        break;
      case VoteDisposition::kDropped:
        EXPECT_EQ(response.winner, 1);  // The late answer is still recorded.
        break;
      default:
        EXPECT_EQ(response.winner, 1);
    }
  }
  EXPECT_NEAR(static_cast<double>(worker.tasks_abandoned()) / kTrials, 0.3,
              0.08);
  EXPECT_GT(worker.tasks_straggled(), 0);
  EXPECT_EQ(worker.tasks_abandoned() + worker.tasks_answered(), kTrials);
}

TEST(SimulatedWorkerFaultTest, FaultFreeRespondMatchesAnswer) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  SimulatedWorker with_respond(0, &oracle, {}, /*seed=*/3);
  SimulatedWorker with_answer(0, &oracle, {}, /*seed=*/3);
  for (int i = 0; i < 50; ++i) {
    const WorkerResponse response = with_respond.Respond({0, 1});
    EXPECT_EQ(response.disposition, VoteDisposition::kCounted);
    EXPECT_EQ(response.winner, with_answer.Answer({0, 1}));
  }
}

// Shared fixture config: a clean pool so every lost vote is a fault.
PlatformOptions FaultyOptions(const FaultOptions& fault) {
  PlatformOptions options;
  options.num_workers = 10;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  options.gold_task_probability = 0.0;
  options.record_transcript = true;
  options.seed = 17;
  options.fault = fault;
  return options;
}

TEST(PlatformFaultTest, ValidatesFaultOptions) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  FaultOptions fault;
  fault.abandon_probability = 1.0;
  EXPECT_FALSE(CrowdPlatform::Create(&oracle, &instance, {},
                                     FaultyOptions(fault))
                   .ok());
  fault = {};
  fault.churn_probability = -0.1;
  EXPECT_FALSE(CrowdPlatform::Create(&oracle, &instance, {},
                                     FaultyOptions(fault))
                   .ok());
  fault = {};
  fault.min_quorum = 0;
  EXPECT_FALSE(CrowdPlatform::Create(&oracle, &instance, {},
                                     FaultyOptions(fault))
                   .ok());
}

TEST(PlatformFaultTest, AbandonedVotesAuditedAndNotCounted) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  FaultOptions fault;
  fault.abandon_probability = 0.4;
  auto platform =
      CrowdPlatform::Create(&oracle, &instance, {}, FaultyOptions(fault));
  ASSERT_TRUE(platform.ok());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 5).ok());
  }
  const PlatformFaultStats& stats = (*platform)->fault_stats();
  EXPECT_GT(stats.abandoned_votes, 0);
  EXPECT_EQ(stats.votes_lost(), stats.abandoned_votes);

  int64_t abandoned_in_transcript = 0;
  for (const TaskOutcome& outcome : (*platform)->transcript()) {
    for (const Vote& vote : outcome.votes) {
      if (vote.disposition == VoteDisposition::kAbandoned) {
        EXPECT_FALSE(vote.counted);
        EXPECT_EQ(vote.winner, -1);
        ++abandoned_in_transcript;
      }
    }
  }
  EXPECT_EQ(abandoned_in_transcript, stats.abandoned_votes);
  // Abandoned assignments never became billable votes.
  EXPECT_EQ((*platform)->total_votes(), 100 - stats.abandoned_votes);
}

TEST(PlatformFaultTest, StragglerVotesRecordedButDiscarded) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  FaultOptions fault;
  fault.straggler_probability = 0.4;
  auto platform =
      CrowdPlatform::Create(&oracle, &instance, {}, FaultyOptions(fault));
  ASSERT_TRUE(platform.ok());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 5).ok());
  }
  const PlatformFaultStats& stats = (*platform)->fault_stats();
  EXPECT_GT(stats.straggler_votes, 0);

  int64_t stragglers_in_transcript = 0;
  for (const TaskOutcome& outcome : (*platform)->transcript()) {
    for (const Vote& vote : outcome.votes) {
      if (vote.disposition == VoteDisposition::kDropped) {
        EXPECT_FALSE(vote.counted);
        EXPECT_NE(vote.winner, -1);  // The late answer is in the audit trail.
        ++stragglers_in_transcript;
      }
    }
  }
  EXPECT_EQ(stragglers_in_transcript, stats.straggler_votes);
  // Straggler answers are billed (the work happened) but never counted.
  EXPECT_EQ((*platform)->total_votes(), 100);
}

TEST(PlatformFaultTest, ChurnReplacesWorkersWithFreshIds) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  FaultOptions fault;
  fault.churn_probability = 0.2;
  fault.seed = 5;
  auto platform =
      CrowdPlatform::Create(&oracle, &instance, {}, FaultyOptions(fault));
  ASSERT_TRUE(platform.ok());

  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 5).ok());
  }
  EXPECT_GT((*platform)->fault_stats().churned_workers, 0);
  EXPECT_EQ((*platform)->num_workers(), 10);  // Pool size is stable.

  // Replacement workers carry fresh ids beyond the original pool.
  bool saw_replacement_vote = false;
  for (const TaskOutcome& outcome : (*platform)->transcript()) {
    for (const Vote& vote : outcome.votes) {
      if (vote.worker_id >= 10) saw_replacement_vote = true;
    }
  }
  EXPECT_TRUE(saw_replacement_vote);
}

TEST(PlatformFaultTest, TransientUnavailabilityIsTypedAndUncharged) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  FaultOptions fault;
  fault.unavailable_probability = 0.4;
  fault.seed = 6;
  auto platform =
      CrowdPlatform::Create(&oracle, &instance, {}, FaultyOptions(fault));
  ASSERT_TRUE(platform.ok());

  int64_t failures = 0;
  constexpr int kCalls = 40;
  for (int i = 0; i < kCalls; ++i) {
    Result<std::vector<TaskOutcome>> outcomes =
        (*platform)->SubmitBatch({{0, 1}}, 3);
    if (!outcomes.ok()) {
      EXPECT_EQ(outcomes.status().code(), StatusCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, kCalls);
  EXPECT_EQ((*platform)->fault_stats().unavailable_errors, failures);
  // A rejected submission consumes no step and no votes.
  EXPECT_EQ((*platform)->logical_steps(), kCalls - failures);
  EXPECT_EQ((*platform)->total_votes(), 3 * (kCalls - failures));
}

TEST(PlatformFaultTest, MinQuorumFlagsProvisionalOutcomes) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  FaultOptions fault;
  fault.min_quorum = 5;  // More than the 3 votes each task will get.
  auto platform =
      CrowdPlatform::Create(&oracle, &instance, {}, FaultyOptions(fault));
  ASSERT_TRUE(platform.ok());

  Result<std::vector<TaskOutcome>> outcomes =
      (*platform)->SubmitBatch({{0, 1}}, 3);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ((*outcomes)[0].disposition, TaskDisposition::kNoQuorum);
  EXPECT_EQ((*outcomes)[0].majority_winner, 1);  // Provisional but present.
  EXPECT_EQ((*platform)->fault_stats().no_quorum_tasks, 1);
}

TEST(PlatformFaultTest, FullyAbandonedTaskIsDroppedNotCoinFlipped) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  FaultOptions fault;
  fault.abandon_probability = 0.9;
  auto platform =
      CrowdPlatform::Create(&oracle, &instance, {}, FaultyOptions(fault));
  ASSERT_TRUE(platform.ok());

  bool saw_dropped = false;
  for (int i = 0; i < 20 && !saw_dropped; ++i) {
    Result<std::vector<TaskOutcome>> outcomes =
        (*platform)->SubmitBatch({{0, 1}}, 1);
    ASSERT_TRUE(outcomes.ok());
    if ((*outcomes)[0].disposition == TaskDisposition::kDropped) {
      EXPECT_EQ((*outcomes)[0].majority_winner, -1);
      EXPECT_EQ((*outcomes)[0].counted_votes, 0);
      saw_dropped = true;
    }
  }
  EXPECT_TRUE(saw_dropped);
  EXPECT_GT((*platform)->fault_stats().dropped_tasks, 0);
}

TEST(PlatformFaultTest, DisabledFaultsLeaveLegacyBehaviour) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  auto platform =
      CrowdPlatform::Create(&oracle, &instance, {}, FaultyOptions({}));
  ASSERT_TRUE(platform.ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 5).ok());
  }
  const PlatformFaultStats& stats = (*platform)->fault_stats();
  EXPECT_EQ(stats.abandoned_votes, 0);
  EXPECT_EQ(stats.straggler_votes, 0);
  EXPECT_EQ(stats.churned_workers, 0);
  EXPECT_EQ(stats.unavailable_errors, 0);
  EXPECT_EQ(stats.no_quorum_tasks, 0);
  EXPECT_EQ(stats.dropped_tasks, 0);
  for (const TaskOutcome& outcome : (*platform)->transcript()) {
    EXPECT_EQ(outcome.disposition, TaskDisposition::kAnswered);
    for (const Vote& vote : outcome.votes) {
      EXPECT_EQ(vote.disposition, VoteDisposition::kCounted);
    }
  }
}

std::string FaultyRunCsv(uint64_t fault_seed) {
  Result<Instance> instance = UniformInstance(20, /*seed=*/8);
  CROWDMAX_CHECK(instance.ok());
  ThresholdComparator crowd(&*instance, ThresholdModel{0.05, 0.1},
                            /*seed=*/9);
  FaultOptions fault;
  fault.abandon_probability = 0.15;
  fault.straggler_probability = 0.1;
  fault.churn_probability = 0.1;
  fault.unavailable_probability = 0.1;
  fault.min_quorum = 2;
  fault.seed = fault_seed;
  auto platform =
      CrowdPlatform::Create(&crowd, &*instance, {}, FaultyOptions(fault));
  CROWDMAX_CHECK(platform.ok());
  for (ElementId e = 1; e < 15; ++e) {
    (void)(*platform)->SubmitBatch({{0, e}, {e, e / 2}}, 3);
  }
  std::ostringstream csv;
  CROWDMAX_CHECK((*platform)->ExportTranscriptCsv(csv).ok());
  return csv.str();
}

TEST(PlatformFaultTest, SameFaultSeedReplaysBitForBit) {
  const std::string first = FaultyRunCsv(/*fault_seed=*/71);
  EXPECT_EQ(first, FaultyRunCsv(/*fault_seed=*/71));
  EXPECT_NE(first, FaultyRunCsv(/*fault_seed=*/72));
  // The audit trail names the fault dispositions.
  EXPECT_NE(first.find("vote_disposition,task_disposition"),
            std::string::npos);
}

// --------------------------------------------------- End-to-end acceptance.

// Algorithm 1 over ResilientBatchExecutor on a faulty platform. Returns
// the full batched result for inspection.
Result<ExpertMaxResult> RunFaultyAlgorithm1(
    const Instance& instance, Comparator* naive_model,
    Comparator* expert_model, int64_t u_n, uint64_t fault_seed) {
  FaultOptions fault;
  fault.abandon_probability = 0.1;
  fault.churn_probability = 0.05;
  fault.min_quorum = 2;
  fault.seed = fault_seed;

  PlatformOptions options;
  options.num_workers = 40;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  options.seed = fault_seed * 31 + 7;
  options.fault = fault;

  auto naive_platform =
      CrowdPlatform::Create(naive_model, &instance, {}, options);
  CROWDMAX_CHECK(naive_platform.ok());
  auto expert_platform =
      CrowdPlatform::Create(expert_model, &instance, {}, options);
  CROWDMAX_CHECK(expert_platform.ok());

  auto naive_executor =
      PlatformBatchExecutor::Create(naive_platform->get(), /*votes=*/3);
  auto expert_executor =
      PlatformBatchExecutor::Create(expert_platform->get(), /*votes=*/7);
  CROWDMAX_CHECK(naive_executor.ok() && expert_executor.ok());

  ResilientOptions resilient_options;
  resilient_options.max_retries = 6;
  resilient_options.min_votes = 2;
  auto naive = ResilientBatchExecutor::Create(naive_executor->get(),
                                              resilient_options);
  auto expert = ResilientBatchExecutor::Create(expert_executor->get(),
                                               resilient_options);
  CROWDMAX_CHECK(naive.ok() && expert.ok());

  ExpertMaxOptions algo;
  algo.filter.u_n = u_n;
  return FindMaxWithExperts(instance.AllElements(), naive->get(),
                            expert->get(), algo);
}

TEST(FaultAcceptanceTest, DotsSurvivesAbandonmentAndChurn) {
  // Acceptance: abandon 0.1 + churn 0.05, three fault seeds, true max.
  DotsDataset dots = DotsDataset::Standard();
  Result<DotsDataset> sampled = dots.Sample(30, /*seed=*/123);
  ASSERT_TRUE(sampled.ok());
  Instance instance = sampled->ToInstance();

  // Phase-2 experts discriminate below the max/runner-up gap, so any run
  // where the filter keeps the max must return it exactly — the test then
  // isolates whether recovery preserved the filter guarantee.
  const double delta_e = 0.5 * instance.DeltaForU(2);
  for (uint64_t fault_seed : {1u, 2u, 3u}) {
    RelativeErrorComparator crowd(&instance, DotsWorkerModel(),
                                  /*seed=*/900 + fault_seed);
    ThresholdComparator expert_model(&instance, ThresholdModel{delta_e, 0.0},
                                     /*seed=*/950 + fault_seed);
    Result<ExpertMaxResult> result = RunFaultyAlgorithm1(
        instance, &crowd, &expert_model, /*u_n=*/5, fault_seed);
    ASSERT_TRUE(result.ok()) << "fault_seed=" << fault_seed;
    EXPECT_FALSE(result->partial) << "fault_seed=" << fault_seed;
    EXPECT_EQ(result->best, instance.MaxElement())
        << "fault_seed=" << fault_seed;
    ASSERT_TRUE(result->naive_faults.has_value());
    // The fault rates guarantee losses; recovery must have done real work.
    EXPECT_GT(result->naive_faults->votes_lost +
                  result->naive_faults->relaxed_accepts,
              0)
        << "fault_seed=" << fault_seed;
  }
}

TEST(FaultAcceptanceTest, CarsSurvivesAbandonmentAndChurn) {
  // CARS is the persistent-bias regime: phase 2 needs true experts (a
  // tighter threshold model), but both phases run on faulty platforms.
  CarsDataset cars = CarsDataset::Standard(/*seed=*/300);
  Result<CarsDataset> sampled = cars.Sample(40, /*seed=*/301);
  ASSERT_TRUE(sampled.ok());
  Instance instance = sampled->ToInstance();

  // A true expert resolving prices below the max/runner-up gap (the $400
  // threshold of the integration test still coin-flips near-ties, which
  // an all-seeds-exact acceptance bar cannot tolerate).
  const double delta_e = 0.5 * instance.DeltaForU(2);
  for (uint64_t fault_seed : {1u, 2u, 3u}) {
    PersistentBiasComparator crowd(&instance, CarsWorkerModel(),
                                   /*seed=*/700 + fault_seed);
    ThresholdComparator expert_model(&instance, ThresholdModel{delta_e, 0.0},
                                     /*seed=*/750 + fault_seed);
    // u_n = 15: the 40-car catalog puts more cars inside the crowd's
    // relative-difference blind spot than the 10 the integration test
    // budgets for 50, and the all-seeds-exact bar leaves no slack for an
    // undershot u_n evicting the max in phase 1.
    Result<ExpertMaxResult> result = RunFaultyAlgorithm1(
        instance, &crowd, &expert_model, /*u_n=*/15, fault_seed);
    ASSERT_TRUE(result.ok()) << "fault_seed=" << fault_seed;
    EXPECT_FALSE(result->partial) << "fault_seed=" << fault_seed;
    EXPECT_EQ(result->best, instance.MaxElement())
        << "fault_seed=" << fault_seed;
  }
}

TEST(FaultAcceptanceTest, DeterministicFaultReplaySmoke) {
  // The default-ctest smoke test: the same fault seed replays the whole
  // faulty pipeline to the same answer and the same recovery accounting.
  DotsDataset dots = DotsDataset::Standard();
  Result<DotsDataset> sampled = dots.Sample(20, /*seed=*/40);
  ASSERT_TRUE(sampled.ok());
  Instance instance = sampled->ToInstance();

  auto run = [&] {
    RelativeErrorComparator crowd(&instance, DotsWorkerModel(), /*seed=*/41);
    RelativeErrorComparator expert_crowd(&instance, DotsWorkerModel(),
                                         /*seed=*/42);
    Result<ExpertMaxResult> result = RunFaultyAlgorithm1(
        instance, &crowd, &expert_crowd, /*u_n=*/4, /*fault_seed=*/9);
    CROWDMAX_CHECK(result.ok());
    return *result;
  };
  const ExpertMaxResult first = run();
  const ExpertMaxResult second = run();
  EXPECT_EQ(first.best, second.best);
  EXPECT_EQ(first.naive_steps, second.naive_steps);
  EXPECT_EQ(first.expert_steps, second.expert_steps);
  EXPECT_EQ(first.naive_faults->attempts, second.naive_faults->attempts);
  EXPECT_EQ(first.naive_faults->votes_lost, second.naive_faults->votes_lost);
  EXPECT_EQ(first.expert_faults->retried_tasks,
            second.expert_faults->retried_tasks);
}

}  // namespace
}  // namespace crowdmax
