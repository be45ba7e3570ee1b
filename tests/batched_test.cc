// Tests for the batched (logical-step) execution of the algorithms:
// equivalence with the sequential versions under consistent answers, and
// the logical-step complexity (O(log n) for Algorithm 2, O(sqrt(s)) for
// 2-MaxFind).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/batched.h"
#include "core/comparator.h"
#include "core/instance.h"
#include "core/resilient.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

TEST(BatchExecutorTest, CountsStepsAndComparisons) {
  Instance instance({1.0, 2.0, 3.0});
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);

  EXPECT_TRUE(executor.ExecuteBatch({}).empty());
  EXPECT_EQ(executor.logical_steps(), 0);  // Empty batch is free.

  std::vector<ElementId> winners = executor.ExecuteBatch({{0, 1}, {1, 2}});
  ASSERT_EQ(winners.size(), 2u);
  EXPECT_EQ(winners[0], 1);
  EXPECT_EQ(winners[1], 2);
  EXPECT_EQ(executor.logical_steps(), 1);
  EXPECT_EQ(executor.comparisons(), 2);

  executor.ExecuteBatch({{0, 2}});
  EXPECT_EQ(executor.logical_steps(), 2);
  EXPECT_EQ(executor.comparisons(), 3);

  executor.ResetCounters();
  EXPECT_EQ(executor.logical_steps(), 0);
  EXPECT_EQ(executor.comparisons(), 0);
}

// The engine-backed batched tournament (the replacement for the removed
// BatchedAllPlayAll wrapper) matches the sequential tournament and costs
// one logical step.
TEST(BatchedAllPlayAllTest, MatchesSequentialTournament) {
  Result<Instance> instance = UniformInstance(20, /*seed=*/1);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  ComparatorBatchExecutor executor(&oracle);

  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreateBatched(&executor);
  ASSERT_TRUE(engine.ok());
  Result<TournamentEngineRun> batched =
      RunTournamentOnEngine(instance->AllElements(), engine->get());
  ASSERT_TRUE(batched.ok());
  OracleComparator oracle2(&*instance);
  const TournamentResult sequential =
      AllPlayAll(instance->AllElements(), &oracle2);

  EXPECT_EQ(batched->tournament.wins, sequential.wins);
  EXPECT_EQ(batched->tournament.comparisons, sequential.comparisons);
  EXPECT_EQ(batched->unresolved, 0);
  EXPECT_EQ(executor.logical_steps(), 1);  // One step for the whole round.
}

// Equivalence sweep: with per-pair persistent answers, batched and
// sequential Algorithm 2 produce identical candidate sets.
class BatchedFilterEquivalence
    : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t>> {};

TEST_P(BatchedFilterEquivalence, MatchesSequentialFilter) {
  const auto [n, seed] = GetParam();
  Result<Instance> instance = UniformInstance(n, seed);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(8);
  const int64_t u_n = instance->CountWithin(delta);

  ThresholdComparator::Options worker;
  worker.model = ThresholdModel{delta, 0.0};
  worker.tie_policy = TiePolicy::kPersistentArbitrary;

  FilterOptions options;
  options.u_n = u_n;

  ThresholdComparator seq_worker(&*instance, worker, seed + 1);
  Result<FilterResult> sequential =
      FilterCandidates(instance->AllElements(), options, &seq_worker);
  ASSERT_TRUE(sequential.ok());

  ThresholdComparator batch_worker(&*instance, worker, seed + 1);
  ComparatorBatchExecutor executor(&batch_worker);
  Result<BatchedFilterResult> batched =
      BatchedFilterCandidates(instance->AllElements(), options, &executor);
  ASSERT_TRUE(batched.ok());

  EXPECT_EQ(batched->filter.candidates, sequential->candidates);
  EXPECT_EQ(batched->filter.rounds, sequential->rounds);
  EXPECT_EQ(batched->filter.paid_comparisons, sequential->paid_comparisons);
  // One logical step per round.
  EXPECT_EQ(batched->logical_steps, batched->filter.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchedFilterEquivalence,
    ::testing::Combine(::testing::Values<int64_t>(100, 500, 2000),
                       ::testing::Values<uint64_t>(7, 8, 9)));

TEST(BatchedFilterTest, LogarithmicLogicalSteps) {
  for (int64_t n : {1000, 2000, 4000, 8000}) {
    Result<Instance> instance =
        UniformInstance(n, /*seed=*/static_cast<uint64_t>(n));
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(5);
    ThresholdComparator worker(&*instance, ThresholdModel{delta, 0.0},
                               /*seed=*/1);
    ComparatorBatchExecutor executor(&worker);
    FilterOptions options;
    options.u_n = instance->CountWithin(delta);
    Result<BatchedFilterResult> result =
        BatchedFilterCandidates(instance->AllElements(), options, &executor);
    ASSERT_TRUE(result.ok());
    // i* <= log2(n) rounds (Lemma 3's proof).
    EXPECT_LE(result->logical_steps,
              static_cast<int64_t>(std::log2(static_cast<double>(n))) + 1);
  }
}

TEST(BatchedFilterTest, MemoizationSkipsRepeatedPairsAcrossRounds) {
  Result<Instance> instance = UniformInstance(800, /*seed=*/21);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(10);
  ThresholdComparator::Options worker;
  worker.model = ThresholdModel{delta, 0.0};
  worker.tie_policy = TiePolicy::kPersistentArbitrary;

  FilterOptions plain;
  plain.u_n = instance->CountWithin(delta);
  FilterOptions memoized = plain;
  memoized.memoize = true;

  ThresholdComparator worker_a(&*instance, worker, /*seed=*/22);
  ComparatorBatchExecutor exec_a(&worker_a);
  Result<BatchedFilterResult> r_plain =
      BatchedFilterCandidates(instance->AllElements(), plain, &exec_a);

  ThresholdComparator worker_b(&*instance, worker, /*seed=*/22);
  ComparatorBatchExecutor exec_b(&worker_b);
  Result<BatchedFilterResult> r_memo =
      BatchedFilterCandidates(instance->AllElements(), memoized, &exec_b);

  ASSERT_TRUE(r_plain.ok() && r_memo.ok());
  EXPECT_EQ(r_plain->filter.candidates, r_memo->filter.candidates);
  EXPECT_LE(r_memo->filter.paid_comparisons,
            r_plain->filter.paid_comparisons);
}

TEST(BatchedFilterTest, IdOutsideTheInstanceIsATypedErrorNotAnAbort) {
  // The worker model refuses a pair with an id outside its instance; the
  // comparator executors report that pair instead of aborting, and the
  // recovery stack passes the error through without retrying it.
  Result<Instance> instance = UniformInstance(100, 5);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(5);
  for (const int64_t threads : {0, 1, 4}) {
    for (const bool resilient : {false, true}) {
      for (const bool memoize : {false, true}) {
        const std::string context = "threads=" + std::to_string(threads) +
                                    " resilient=" + std::to_string(resilient) +
                                    " memoize=" + std::to_string(memoize);
        ThresholdComparator naive(&*instance, ThresholdModel{delta, 0.1},
                                  /*seed=*/3);
        std::unique_ptr<BatchExecutor> executor;
        if (threads == 0) {
          executor = std::make_unique<ComparatorBatchExecutor>(&naive);
        } else {
          Result<std::unique_ptr<ParallelBatchExecutor>> parallel =
              ParallelBatchExecutor::Create(&naive, threads, /*seed=*/9,
                                            /*chunk_size=*/64);
          ASSERT_TRUE(parallel.ok()) << context;
          executor = std::move(parallel).value();
        }
        std::unique_ptr<ResilientBatchExecutor> recovery;
        BatchExecutor* top = executor.get();
        if (resilient) {
          Result<std::unique_ptr<ResilientBatchExecutor>> created =
              ResilientBatchExecutor::Create(executor.get());
          ASSERT_TRUE(created.ok()) << context;
          recovery = std::move(created).value();
          top = recovery.get();
        }
        FilterOptions options;
        options.u_n = 5;
        options.memoize = memoize;
        std::vector<ElementId> items = instance->AllElements();
        items[50] = 1000;
        const Result<BatchedFilterResult> result =
            BatchedFilterCandidates(items, options, top);
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << context;
        EXPECT_NE(result.status().message().find("1000"), std::string::npos)
            << context << ": " << result.status().ToString();
        if (resilient) {
          EXPECT_EQ(recovery->report().attempts, 1) << context;
        }
      }
    }
  }
}

TEST(BatchedFilterTest, HonorsComparisonBudget) {
  Result<Instance> instance = UniformInstance(600, /*seed=*/91);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(8);
  ThresholdComparator worker(&*instance, ThresholdModel{delta, 0.0}, 92);
  ComparatorBatchExecutor executor(&worker);
  FilterOptions options;
  options.u_n = instance->CountWithin(delta);
  options.max_comparisons = 10000;
  Result<BatchedFilterResult> result =
      BatchedFilterCandidates(instance->AllElements(), options, &executor);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->filter.stopped_by_budget);
  EXPECT_LE(result->filter.paid_comparisons, 10000);
  // The maximum survives an early stop.
  bool found = false;
  for (ElementId e : result->filter.candidates) {
    found = found || e == instance->MaxElement();
  }
  EXPECT_TRUE(found);
}

TEST(BatchedTwoMaxFindTest, MatchesSequentialUnderConsistentAnswers) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    Result<Instance> instance = UniformInstance(150, seed);
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(10);
    ThresholdComparator::Options worker;
    worker.model = ThresholdModel{delta, 0.0};
    worker.tie_policy = TiePolicy::kPersistentArbitrary;

    ThresholdComparator seq_worker(&*instance, worker, seed + 1);
    Result<MaxFindResult> sequential =
        TwoMaxFind(instance->AllElements(), &seq_worker);

    ThresholdComparator batch_worker(&*instance, worker, seed + 1);
    ComparatorBatchExecutor executor(&batch_worker);
    Result<BatchedMaxFindResult> batched =
        BatchedTwoMaxFind(instance->AllElements(), &executor);

    ASSERT_TRUE(sequential.ok() && batched.ok());
    EXPECT_EQ(batched->maxfind.best, sequential->best);
    EXPECT_EQ(batched->maxfind.rounds, sequential->rounds);
    EXPECT_EQ(batched->maxfind.paid_comparisons,
              sequential->paid_comparisons);
  }
}

TEST(BatchedTwoMaxFindTest, SquareRootLogicalSteps) {
  for (int64_t s : {100, 400, 1600}) {
    Result<Instance> instance =
        UniformInstance(s, /*seed=*/static_cast<uint64_t>(s) + 41);
    ASSERT_TRUE(instance.ok());
    OracleComparator oracle(&*instance);
    ComparatorBatchExecutor executor(&oracle);
    Result<BatchedMaxFindResult> result =
        BatchedTwoMaxFind(instance->AllElements(), &executor);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->maxfind.best, instance->MaxElement());
    // At most 2 steps per round plus the final tournament; rounds are
    // O(sqrt(s)) with consistent answers.
    const int64_t sqrt_s = static_cast<int64_t>(
        std::ceil(std::sqrt(static_cast<double>(s))));
    EXPECT_LE(result->logical_steps, 2 * (2 * sqrt_s + 2) + 1)
        << "s=" << s;
  }
}

TEST(BatchedTwoMaxFindTest, SingletonNeedsNoSteps) {
  Instance instance({5.0});
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  Result<BatchedMaxFindResult> result = BatchedTwoMaxFind({0}, &executor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->maxfind.best, 0);
  EXPECT_EQ(result->logical_steps, 0);
}

TEST(BatchedExpertMaxTest, EndToEndGuaranteeAndStepBudget) {
  Result<Instance> instance = UniformInstance(2000, /*seed=*/51);
  ASSERT_TRUE(instance.ok());
  const double delta_n = instance->DeltaForU(15);
  const double delta_e = instance->DeltaForU(4);
  ThresholdComparator naive(&*instance, ThresholdModel{delta_n, 0.0},
                            /*seed=*/52);
  ThresholdComparator expert(&*instance, ThresholdModel{delta_e, 0.0},
                             /*seed=*/53);
  ComparatorBatchExecutor naive_exec(&naive);
  ComparatorBatchExecutor expert_exec(&expert);

  ExpertMaxOptions options;
  options.filter.u_n = instance->CountWithin(delta_n);
  Result<BatchedExpertMaxResult> result = BatchedFindMaxWithExperts(
      instance->AllElements(), &naive_exec, &expert_exec, options);
  ASSERT_TRUE(result.ok());

  EXPECT_LE(instance->Distance(result->result.best, instance->MaxElement()),
            2.0 * delta_e + 1e-12);
  // Latency: logarithmic naive phase, sqrt-sized expert phase.
  EXPECT_LE(result->naive_steps, 12);
  EXPECT_LE(result->expert_steps, 2 * 7 + 3);
  // Cost matches the sequential bounds.
  EXPECT_LE(result->result.paid.naive, 4 * 2000 * options.filter.u_n);
}

TEST(BatchedExpertMaxTest, RunsOnTheCrowdPlatform) {
  Result<Instance> instance = UniformInstance(60, /*seed=*/61, 0.0, 100.0);
  ASSERT_TRUE(instance.ok());
  ThresholdComparator crowd(&*instance, ThresholdModel{2.0, 0.05},
                            /*seed=*/62);
  PlatformOptions platform_options;
  platform_options.num_workers = 30;
  platform_options.spammer_fraction = 0.0;
  platform_options.seed = 63;
  auto platform =
      CrowdPlatform::Create(&crowd, &*instance, {}, platform_options);
  ASSERT_TRUE(platform.ok());

  PlatformBatchExecutor naive_exec(platform->get(), /*votes_per_task=*/1);
  PlatformBatchExecutor expert_exec(platform->get(), /*votes_per_task=*/7);

  ExpertMaxOptions options;
  options.filter.u_n = 4;
  Result<BatchedExpertMaxResult> result = BatchedFindMaxWithExperts(
      instance->AllElements(), &naive_exec, &expert_exec, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(instance->Contains(result->result.best));
  // Platform logical steps equal executor batches exactly.
  EXPECT_EQ((*platform)->logical_steps(),
            result->naive_steps + result->expert_steps);
}

TEST(BatchedTopKTest, MatchesSequentialAndCountsSteps) {
  Result<Instance> instance = UniformInstance(600, /*seed=*/71);
  ASSERT_TRUE(instance.ok());
  const double delta_n = instance->DeltaForU(10);
  const double delta_e = instance->DeltaForU(2);

  TopKOptions options;
  options.k = 5;
  options.filter.u_n = instance->CountWithin(delta_n);

  ThresholdComparator::Options worker;
  worker.tie_policy = TiePolicy::kPersistentArbitrary;

  worker.model = ThresholdModel{delta_n, 0.0};
  ThresholdComparator naive_seq(&*instance, worker, /*seed=*/72);
  worker.model = ThresholdModel{delta_e, 0.0};
  ThresholdComparator expert_seq(&*instance, worker, /*seed=*/73);
  Result<TopKResult> sequential = FindTopKWithExperts(
      instance->AllElements(), &naive_seq, &expert_seq, options);
  ASSERT_TRUE(sequential.ok());

  worker.model = ThresholdModel{delta_n, 0.0};
  ThresholdComparator naive_cmp(&*instance, worker, /*seed=*/72);
  worker.model = ThresholdModel{delta_e, 0.0};
  ThresholdComparator expert_cmp(&*instance, worker, /*seed=*/73);
  ComparatorBatchExecutor naive_exec(&naive_cmp);
  ComparatorBatchExecutor expert_exec(&expert_cmp);
  Result<BatchedTopKResult> batched = BatchedFindTopKWithExperts(
      instance->AllElements(), &naive_exec, &expert_exec, options);
  ASSERT_TRUE(batched.ok());
  EXPECT_FALSE(batched->partial);

  EXPECT_EQ(batched->result.top, sequential->top);
  EXPECT_EQ(batched->result.candidates, sequential->candidates);
  EXPECT_EQ(batched->result.paid.naive, sequential->paid.naive);
  EXPECT_EQ(batched->result.paid.expert, sequential->paid.expert);
  EXPECT_EQ(batched->result.filter_rounds, sequential->filter_rounds);

  // Latency contract: one executor batch per filter round (logarithmic in
  // n), one batch for the whole expert tournament.
  EXPECT_EQ(batched->naive_steps, batched->result.filter_rounds);
  EXPECT_EQ(batched->naive_steps, naive_exec.logical_steps());
  EXPECT_LE(batched->naive_steps,
            static_cast<int64_t>(std::log2(600)) + 2);
  EXPECT_EQ(batched->expert_steps, 1);
  EXPECT_EQ(expert_exec.logical_steps(), 1);
}

TEST(BatchedMultilevelTest, MatchesSequentialAndCountsStepsPerClass) {
  Result<Instance> instance = UniformInstance(500, /*seed=*/81);
  ASSERT_TRUE(instance.ok());
  const double delta_naive = instance->DeltaForU(12);
  const double delta_expert = instance->DeltaForU(3);

  ThresholdComparator::Options worker;
  worker.tie_policy = TiePolicy::kPersistentArbitrary;

  auto make_classes = [&](ThresholdComparator* naive,
                          ThresholdComparator* expert) {
    return std::vector<WorkerClassSpec>{
        {naive, instance->CountWithin(delta_naive), 1.0},
        {expert, 1, 30.0}};
  };
  worker.model = ThresholdModel{delta_naive, 0.0};
  ThresholdComparator naive_seq(&*instance, worker, /*seed=*/82);
  worker.model = ThresholdModel{delta_expert, 0.0};
  ThresholdComparator expert_seq(&*instance, worker, /*seed=*/83);
  Result<MultilevelResult> sequential = FindMaxMultilevel(
      instance->AllElements(), make_classes(&naive_seq, &expert_seq),
      MultilevelOptions{});
  ASSERT_TRUE(sequential.ok());

  worker.model = ThresholdModel{delta_naive, 0.0};
  ThresholdComparator naive_cmp(&*instance, worker, /*seed=*/82);
  worker.model = ThresholdModel{delta_expert, 0.0};
  ThresholdComparator expert_cmp(&*instance, worker, /*seed=*/83);
  ComparatorBatchExecutor naive_exec(&naive_cmp);
  ComparatorBatchExecutor expert_exec(&expert_cmp);
  Result<BatchedMultilevelResult> batched = BatchedFindMaxMultilevel(
      instance->AllElements(),
      {{&naive_exec, instance->CountWithin(delta_naive), 1.0},
       {&expert_exec, 1, 30.0}},
      MultilevelOptions{});
  ASSERT_TRUE(batched.ok());
  EXPECT_FALSE(batched->partial);

  EXPECT_EQ(batched->result.best, sequential->best);
  EXPECT_EQ(batched->result.paid_per_class, sequential->paid_per_class);
  EXPECT_EQ(batched->result.candidates_per_level,
            sequential->candidates_per_level);
  EXPECT_EQ(batched->result.total_cost, sequential->total_cost);

  // Per-class latency: the filter level takes one batch per round
  // (logarithmic), the final 2-MaxFind level one batch per engine round.
  ASSERT_EQ(batched->steps_per_class.size(), 2u);
  EXPECT_EQ(batched->steps_per_class[0], naive_exec.logical_steps());
  EXPECT_EQ(batched->steps_per_class[1], expert_exec.logical_steps());
  EXPECT_GE(batched->steps_per_class[0], 1);
  EXPECT_LE(batched->steps_per_class[0],
            static_cast<int64_t>(std::log2(500)) + 2);
  EXPECT_GE(batched->steps_per_class[1], 1);
}

}  // namespace
}  // namespace crowdmax
