// Tests for the batched (logical-step) execution of the algorithms:
// equivalence with the sequential versions under consistent answers, the
// logical-step complexity (O(log n) for Algorithm 2, O(sqrt(s)) for
// 2-MaxFind), and every query's answer on every Execution.

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/above.h"
#include "core/async_executor.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/maxfind.h"
#include "core/multilevel.h"
#include "core/resilient.h"
#include "core/round_engine.h"
#include "core/topk.h"
#include "core/tournament.h"
#include "core/trace.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

TEST(BatchExecutorTest, CountsStepsAndComparisons) {
  Instance instance({1.0, 2.0, 3.0});
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);

  Result<std::vector<BatchTaskResult>> empty = executor.TryExecuteBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(executor.logical_steps(), 0);  // Empty batch is free.

  Result<std::vector<BatchTaskResult>> winners =
      executor.TryExecuteBatch({{0, 1}, {1, 2}});
  ASSERT_TRUE(winners.ok());
  ASSERT_EQ(winners->size(), 2u);
  EXPECT_EQ((*winners)[0].winner, 1);
  EXPECT_EQ((*winners)[1].winner, 2);
  EXPECT_EQ(executor.logical_steps(), 1);
  EXPECT_EQ(executor.comparisons(), 2);

  ASSERT_TRUE(executor.TryExecuteBatch({{0, 2}}).ok());
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
      RoundEngine::CreateBatched(&executor, /*memoize=*/true);
  ASSERT_TRUE(engine.ok());
  Result<TournamentResult> batched =
      RunTournamentOnEngine(instance->AllElements(), engine->get());
  ASSERT_TRUE(batched.ok());
  OracleComparator oracle2(&*instance);
  const Result<TournamentResult> sequential =
      AllPlayAll(instance->AllElements(), &oracle2);
  ASSERT_TRUE(sequential.ok());

  EXPECT_EQ(batched->wins, sequential->wins);
  EXPECT_EQ(batched->comparisons, sequential->comparisons);
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
  Result<FilterResult> batched =
      FilterCandidates(instance->AllElements(), options, &executor);
  ASSERT_TRUE(batched.ok());

  EXPECT_EQ(batched->candidates, sequential->candidates);
  EXPECT_EQ(batched->rounds, sequential->rounds);
  EXPECT_EQ(batched->paid_comparisons, sequential->paid_comparisons);
  // One logical step per round.
  EXPECT_EQ(batched->logical_steps, batched->rounds);
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
    Result<FilterResult> result =
        FilterCandidates(instance->AllElements(), options, &executor);
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
  Result<FilterResult> r_plain =
      FilterCandidates(instance->AllElements(), plain, &exec_a);

  ThresholdComparator worker_b(&*instance, worker, /*seed=*/22);
  ComparatorBatchExecutor exec_b(&worker_b);
  Result<FilterResult> r_memo =
      FilterCandidates(instance->AllElements(), memoized, &exec_b);

  ASSERT_TRUE(r_plain.ok() && r_memo.ok());
  EXPECT_EQ(r_plain->candidates, r_memo->candidates);
  EXPECT_LE(r_memo->paid_comparisons,
            r_plain->paid_comparisons);
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
        const Result<FilterResult> result =
            FilterCandidates(items, options, top);
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
  Result<FilterResult> result =
      FilterCandidates(instance->AllElements(), options, &executor);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stopped_by_budget);
  EXPECT_LE(result->paid_comparisons, 10000);
  // The maximum survives an early stop.
  bool found = false;
  for (ElementId e : result->candidates) {
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
    Result<MaxFindResult> batched =
        TwoMaxFind(instance->AllElements(), &executor);

    ASSERT_TRUE(sequential.ok() && batched.ok());
    EXPECT_EQ(batched->best, sequential->best);
    EXPECT_EQ(batched->rounds, sequential->rounds);
    EXPECT_EQ(batched->paid_comparisons,
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
    Result<MaxFindResult> result =
        TwoMaxFind(instance->AllElements(), &executor);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->best, instance->MaxElement());
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
  Result<MaxFindResult> result = TwoMaxFind({0}, &executor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, 0);
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
  Result<ExpertMaxResult> result = FindMaxWithExperts(
      instance->AllElements(), &naive_exec, &expert_exec, options);
  ASSERT_TRUE(result.ok());

  EXPECT_LE(instance->Distance(result->best, instance->MaxElement()),
            2.0 * delta_e + 1e-12);
  // Latency: logarithmic naive phase, sqrt-sized expert phase.
  EXPECT_LE(result->naive_steps, 12);
  EXPECT_LE(result->expert_steps, 2 * 7 + 3);
  // Cost matches the sequential bounds.
  EXPECT_LE(result->paid.naive, 4 * 2000 * options.filter.u_n);
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

  const std::unique_ptr<PlatformBatchExecutor> naive_exec =
      PlatformBatchExecutor::Create(platform->get(),
                                    /*votes_per_task=*/1).value();
  const std::unique_ptr<PlatformBatchExecutor> expert_exec =
      PlatformBatchExecutor::Create(platform->get(),
                                    /*votes_per_task=*/7).value();

  ExpertMaxOptions options;
  options.filter.u_n = 4;
  Result<ExpertMaxResult> result = FindMaxWithExperts(
      instance->AllElements(), naive_exec.get(), expert_exec.get(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(instance->Contains(result->best));
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
  Result<TopKResult> batched = FindTopKWithExperts(
      instance->AllElements(), &naive_exec, &expert_exec, options);
  ASSERT_TRUE(batched.ok());
  EXPECT_FALSE(batched->partial);

  EXPECT_EQ(batched->top, sequential->top);
  EXPECT_EQ(batched->candidates, sequential->candidates);
  EXPECT_EQ(batched->paid.naive, sequential->paid.naive);
  EXPECT_EQ(batched->paid.expert, sequential->paid.expert);
  EXPECT_EQ(batched->filter_rounds, sequential->filter_rounds);

  // Latency contract: one executor batch per filter round (logarithmic in
  // n), one batch for the whole expert tournament.
  EXPECT_EQ(batched->naive_steps, batched->filter_rounds);
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
  Result<MultilevelResult> batched = FindMaxMultilevel(
      instance->AllElements(),
      {{&naive_exec, instance->CountWithin(delta_naive), 1.0},
       {&expert_exec, 1, 30.0}},
      MultilevelOptions{});
  ASSERT_TRUE(batched.ok());
  EXPECT_FALSE(batched->partial);

  EXPECT_EQ(batched->best, sequential->best);
  EXPECT_EQ(batched->paid_per_class, sequential->paid_per_class);
  EXPECT_EQ(batched->candidates_per_level,
            sequential->candidates_per_level);
  EXPECT_EQ(batched->total_cost, sequential->total_cost);

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

// The query-level differential contract: every Execution returns the
// serial comparator's result. Each query runs over OracleComparators (ABOVE
// over a noisy naive class, so that panels split) on a serial comparator,
// a comparator with four filter threads, a ComparatorBatchExecutor, and
// pipelined over it at depths 1 and 8, and must return the same answer
// (best, top, sorted candidates, ABOVE's ordered lists) everywhere, with
// the same paid and issued counts.
enum class DiffBackend { kSerial, kThreads4, kExecutor, kDepth1, kDepth8 };

enum class DiffQuery {
  kFilter,
  kTwoMaxFind,
  kTwoPhaseTwoMaxFind,
  kTwoPhaseRandomized,
  kTwoPhaseAllPlayAll,
  kTopK,
  kMultilevel,
  kAboveRefined,
  kAboveNaiveMajority,
};

// One worker class: its model (an oracle unless given), an executor over
// it and an async adapter over that, handed out as the Execution a backend
// names.
struct DiffCrowd {
  explicit DiffCrowd(const Instance* instance)
      : DiffCrowd(std::make_unique<OracleComparator>(instance)) {}
  explicit DiffCrowd(std::unique_ptr<Comparator> model)
      : model(std::move(model)),
        executor(this->model.get()),
        async(&executor) {}

  Execution For(DiffBackend backend) {
    switch (backend) {
      case DiffBackend::kSerial:
      case DiffBackend::kThreads4:
        return model.get();
      case DiffBackend::kExecutor:
        return &executor;
      case DiffBackend::kDepth1:
        return Execution(&async, 1);
      case DiffBackend::kDepth8:
        return Execution(&async, 8);
    }
    return Execution();
  }

  std::unique_ptr<Comparator> model;
  ComparatorBatchExecutor executor;
  AsyncBatchAdapter async;
};

struct DiffAnswer {
  ElementId best = -1;
  std::vector<ElementId> top;
  std::vector<ElementId> below;
  std::vector<ElementId> candidates;  // Sorted.
  std::vector<int64_t> paid;
  std::vector<int64_t> issued;
  // The span lines of the run's AlgoTrace::Summary().
  std::string spans;
};

DiffAnswer RunDiffQuery(DiffQuery query, const Instance& instance,
                        DiffBackend backend) {
  AlgoTrace trace;
  const ScopedTrace scoped(&trace);
  DiffCrowd naive(&instance);
  DiffCrowd middle(&instance);
  DiffCrowd expert(&instance);
  const std::vector<ElementId> items = instance.AllElements();
  FilterOptions filter;
  filter.u_n = 6;
  filter.memoize = true;
  filter.pipeline_groups = true;
  filter.threads = backend == DiffBackend::kThreads4 ? 4 : 0;
  TwoMaxFindOptions two_maxfind;
  two_maxfind.speculate = true;

  DiffAnswer answer;
  switch (query) {
    case DiffQuery::kFilter: {
      Result<FilterResult> run =
          FilterCandidates(items, filter, naive.For(backend));
      CROWDMAX_CHECK(run.ok());
      answer.candidates = run->candidates;
      answer.paid = {run->paid_comparisons};
      answer.issued = {run->issued_comparisons};
      break;
    }
    case DiffQuery::kTwoMaxFind: {
      Result<MaxFindResult> run =
          TwoMaxFind(items, expert.For(backend), two_maxfind);
      CROWDMAX_CHECK(run.ok());
      answer.best = run->best;
      answer.paid = {run->paid_comparisons};
      answer.issued = {run->issued_comparisons};
      break;
    }
    case DiffQuery::kTwoPhaseTwoMaxFind:
    case DiffQuery::kTwoPhaseRandomized:
    case DiffQuery::kTwoPhaseAllPlayAll: {
      ExpertMaxOptions options;
      options.filter = filter;
      options.two_maxfind = two_maxfind;
      options.randomized.group_size_override = 4;
      options.phase2 = query == DiffQuery::kTwoPhaseTwoMaxFind
                           ? Phase2Algorithm::kTwoMaxFind
                       : query == DiffQuery::kTwoPhaseRandomized
                           ? Phase2Algorithm::kRandomized
                           : Phase2Algorithm::kAllPlayAll;
      Result<ExpertMaxResult> run = FindMaxWithExperts(
          items, naive.For(backend), expert.For(backend), options);
      CROWDMAX_CHECK(run.ok());
      answer.best = run->best;
      answer.candidates = run->candidates;
      answer.paid = {run->paid.naive, run->paid.expert};
      answer.issued = {run->issued.naive, run->issued.expert};
      break;
    }
    case DiffQuery::kTopK: {
      TopKOptions options;
      options.k = 4;
      options.filter = filter;
      options.expert_chunk_pairs = 16;
      Result<TopKResult> run = FindTopKWithExperts(
          items, naive.For(backend), expert.For(backend), options);
      CROWDMAX_CHECK(run.ok());
      answer.top = run->top;
      answer.candidates = run->candidates;
      answer.paid = {run->paid.naive, run->paid.expert};
      break;
    }
    case DiffQuery::kMultilevel: {
      MultilevelOptions options;
      options.filter_template = filter;
      options.two_maxfind = two_maxfind;
      const std::vector<WorkerClassSpec> classes = {
          {naive.For(backend), 12, 1.0},
          {middle.For(backend), 4, 3.0},
          {expert.For(backend), 1, 9.0}};
      Result<MultilevelResult> run = FindMaxMultilevel(items, classes, options);
      CROWDMAX_CHECK(run.ok());
      answer.best = run->best;
      answer.candidates.assign(run->candidates_per_level.begin(),
                               run->candidates_per_level.end());
      answer.paid = run->paid_per_class;
      break;
    }
    case DiffQuery::kAboveRefined:
    case DiffQuery::kAboveNaiveMajority: {
      DiffCrowd noisy(std::make_unique<ThresholdComparator>(
          &instance, ThresholdModel{instance.DeltaForU(40), 0.0},
          /*seed=*/5));
      AboveQueryOptions options;
      options.votes_per_item = 3;
      options.expert_refine = query == DiffQuery::kAboveRefined;
      std::vector<ElementId> others(items.begin() + 1, items.end());
      Result<AboveResult> run =
          FindAbove(others, items[0], options, noisy.For(backend),
                    expert.For(backend));
      CROWDMAX_CHECK(run.ok());
      CROWDMAX_CHECK(!run->escalated.empty());
      answer.top = run->above;
      answer.below = run->below;
      answer.candidates = run->escalated;
      answer.paid = {run->paid.naive, run->paid.expert};
      break;
    }
  }
  std::sort(answer.candidates.begin(), answer.candidates.end());
  std::istringstream summary(trace.Summary());
  for (std::string line; std::getline(summary, line);) {
    if (line.rfind("span ", 0) == 0) answer.spans += line + "\n";
  }
  return answer;
}

TEST(ExecutionDifferentialTest, EveryBackendReturnsTheSerialResult) {
  Result<Instance> instance = UniformInstance(150, /*seed=*/71);
  ASSERT_TRUE(instance.ok());
  for (DiffQuery query :
       {DiffQuery::kFilter, DiffQuery::kTwoMaxFind,
        DiffQuery::kTwoPhaseTwoMaxFind, DiffQuery::kTwoPhaseRandomized,
        DiffQuery::kTwoPhaseAllPlayAll, DiffQuery::kTopK,
        DiffQuery::kMultilevel, DiffQuery::kAboveRefined,
        DiffQuery::kAboveNaiveMajority}) {
    const DiffAnswer serial =
        RunDiffQuery(query, *instance, DiffBackend::kSerial);
    EXPECT_FALSE(serial.spans.empty());
    for (DiffBackend backend :
         {DiffBackend::kThreads4, DiffBackend::kExecutor,
          DiffBackend::kDepth1, DiffBackend::kDepth8}) {
      SCOPED_TRACE("query " + std::to_string(static_cast<int>(query)) +
                   ", backend " + std::to_string(static_cast<int>(backend)));
      const DiffAnswer other = RunDiffQuery(query, *instance, backend);
      EXPECT_EQ(other.best, serial.best);
      EXPECT_EQ(other.top, serial.top);
      EXPECT_EQ(other.below, serial.below);
      EXPECT_EQ(other.candidates, serial.candidates);
      EXPECT_EQ(other.paid, serial.paid);
      EXPECT_EQ(other.issued, serial.issued);
      // One trace shape on every backend.
      EXPECT_EQ(other.spans, serial.spans);
    }
  }
  EXPECT_EQ(RunDiffQuery(DiffQuery::kTwoMaxFind, *instance,
                         DiffBackend::kSerial)
                .best,
            instance->MaxElement());
}

// A shared cache implies memoization on every Execution: a filter run with
// `memoize` left unset keeps its evidence in the cache, so the same run
// again pays nothing.
TEST(ExecutionDifferentialTest, SharedCacheMemoizesOnEveryBackend) {
  Result<Instance> instance = UniformInstance(400, /*seed=*/73);
  ASSERT_TRUE(instance.ok());
  for (DiffBackend backend :
       {DiffBackend::kSerial, DiffBackend::kThreads4, DiffBackend::kExecutor,
        DiffBackend::kDepth1, DiffBackend::kDepth8}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    DiffCrowd naive(std::make_unique<ThresholdComparator>(
        &*instance, ThresholdModel{instance->DeltaForU(4), 0.0},
        /*seed=*/9));
    SharedPairCache cache;
    FilterOptions filter;
    filter.u_n = 4;
    filter.shared_cache = &cache;
    filter.pipeline_groups = backend == DiffBackend::kDepth8;
    filter.threads = backend == DiffBackend::kThreads4 ? 4 : 0;
    Result<FilterResult> first =
        FilterCandidates(instance->AllElements(), filter, naive.For(backend));
    ASSERT_TRUE(first.ok());
    EXPECT_GT(first->paid_comparisons, 0);
    EXPECT_EQ(cache.ResolvedPairs(0), first->paid_comparisons);
    Result<FilterResult> second =
        FilterCandidates(instance->AllElements(), filter, naive.For(backend));
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->paid_comparisons, 0);
    EXPECT_EQ(second->candidates, first->candidates);
  }
}

}  // namespace
}  // namespace crowdmax
