// Tests for the query layer: the cost-based planner and the query engine.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/above.h"
#include "core/batched.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/resilient.h"
#include "core/round_engine.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "query/engine.h"
#include "query/planner.h"
#include "query/service.h"

namespace crowdmax {
namespace {

// ---------------------------------------------------------------- Planner.

TEST(PlannerTest, Validation) {
  PlannerInput input;
  input.n = 0;
  input.u_n = 1;
  EXPECT_FALSE(PlanMaxQuery(input).ok());
  input.n = 100;
  input.u_n = 0;
  EXPECT_FALSE(PlanMaxQuery(input).ok());
  input.u_n = 101;
  EXPECT_FALSE(PlanMaxQuery(input).ok());
  input.u_n = 10;
  input.prices.naive_cost = -1.0;
  EXPECT_FALSE(PlanMaxQuery(input).ok());
}

TEST(PlannerTest, CheapExpertsFavorExpertOnly) {
  PlannerInput input;
  input.n = 5000;
  input.u_n = 10;
  input.prices = CostModel{1.0, 2.0};  // Ratio 2 << crossover.
  Result<MaxQueryPlan> plan = PlanMaxQuery(input);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, MaxStrategy::kExpertOnly);
  EXPECT_LT(plan->expert_only_cost, plan->two_phase_cost);
}

TEST(PlannerTest, ExpensiveExpertsFavorTwoPhase) {
  PlannerInput input;
  input.n = 5000;
  input.u_n = 10;
  input.prices = CostModel{1.0, 200.0};
  Result<MaxQueryPlan> plan = PlanMaxQuery(input);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, MaxStrategy::kTwoPhase);
  EXPECT_LT(plan->two_phase_cost, plan->expert_only_cost);
}

TEST(PlannerTest, NaiveOnlyRequiresOptIn) {
  PlannerInput input;
  input.n = 5000;
  input.u_n = 10;
  input.prices = CostModel{1.0, 50.0};
  Result<MaxQueryPlan> strict = PlanMaxQuery(input);
  ASSERT_TRUE(strict.ok());
  EXPECT_NE(strict->strategy, MaxStrategy::kNaiveOnly);
  EXPECT_TRUE(std::isinf(strict->naive_only_cost));

  input.allow_naive_accuracy = true;
  Result<MaxQueryPlan> loose = PlanMaxQuery(input);
  ASSERT_TRUE(loose.ok());
  // Naive-only is by far the cheapest once allowed.
  EXPECT_EQ(loose->strategy, MaxStrategy::kNaiveOnly);
}

TEST(PlannerTest, WorstCaseModeUsesTheoryBounds) {
  PlannerInput input;
  input.n = 1000;
  input.u_n = 10;
  input.prices = CostModel{1.0, 10.0};
  input.worst_case = true;
  Result<MaxQueryPlan> plan = PlanMaxQuery(input);
  ASSERT_TRUE(plan.ok());
  // 4*n*u_n = 40000 naive plus the phase-2 bound.
  EXPECT_GE(plan->two_phase_cost, 40000.0);
  // Worst-case expert-only: 2*n^1.5 * c_e.
  EXPECT_NEAR(plan->expert_only_cost,
              2.0 * std::pow(1000.0, 1.5) * 10.0, 10.0 * 10.0);
  // At ratio 10 and these sizes the worst-case plan is two-phase.
  EXPECT_EQ(plan->strategy, MaxStrategy::kTwoPhase);
}

TEST(PlannerTest, PredictionsMatchMeasuredScale) {
  // Sanity: the average-case predictions should land within 2x of the
  // measured values recorded in EXPERIMENTS.md (n=5000, u_n=10: ~130k
  // filter comparisons; single-class 2MF: ~8.4k).
  EXPECT_NEAR(PredictFilterComparisons(5000, 10, false), 130000.0, 65000.0);
  EXPECT_NEAR(PredictTwoMaxFindComparisons(5000, false), 8400.0, 4200.0);
}

TEST(PlannerTest, ExplanationNamesTheChoice) {
  PlannerInput input;
  input.n = 100;
  input.u_n = 5;
  input.prices = CostModel{1.0, 100.0};
  Result<MaxQueryPlan> plan = PlanMaxQuery(input);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->explanation.find(MaxStrategyName(plan->strategy)),
            std::string::npos);
  EXPECT_NE(plan->explanation.find("u_n=5"), std::string::npos);
}

TEST(PlannerTest, StrategyNamesAreDistinct) {
  EXPECT_NE(MaxStrategyName(MaxStrategy::kTwoPhase),
            MaxStrategyName(MaxStrategy::kExpertOnly));
  EXPECT_NE(MaxStrategyName(MaxStrategy::kExpertOnly),
            MaxStrategyName(MaxStrategy::kNaiveOnly));
}

// ----------------------------------------------------------------- Engine.

TEST(EngineTest, CreateValidation) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  CrowdQueryEngineOptions options;
  EXPECT_FALSE(CrowdQueryEngine::Create(options).ok());
  options.naive = &oracle;
  EXPECT_FALSE(CrowdQueryEngine::Create(options).ok());
  options.expert = &oracle;
  EXPECT_TRUE(CrowdQueryEngine::Create(options).ok());
  options.prices.expert_cost = -5.0;
  EXPECT_FALSE(CrowdQueryEngine::Create(options).ok());
}

TEST(EngineTest, MaxExecutesThePlannedStrategy) {
  Result<Instance> instance = UniformInstance(800, /*seed=*/5);
  ASSERT_TRUE(instance.ok());
  const double delta_n = instance->DeltaForU(10);
  const double delta_e = instance->DeltaForU(2);
  const int64_t u_n = instance->CountWithin(delta_n);
  ThresholdComparator naive(&*instance, ThresholdModel{delta_n, 0.0}, 6);
  ThresholdComparator expert(&*instance, ThresholdModel{delta_e, 0.0}, 7);

  // Expensive experts: the engine should run the two-phase plan and bill
  // mostly naive comparisons.
  CrowdQueryEngineOptions options;
  options.naive = &naive;
  options.expert = &expert;
  options.prices = CostModel{1.0, 100.0};
  Result<CrowdQueryEngine> engine = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine.ok());

  Result<MaxQueryAnswer> answer = engine->Max(instance->AllElements(), u_n);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->plan.strategy, MaxStrategy::kTwoPhase);
  EXPECT_GT(answer->paid.naive, 0);
  EXPECT_GT(answer->paid.expert, 0);
  EXPECT_LE(instance->Distance(answer->best, instance->MaxElement()),
            2.0 * delta_e + 1e-12);
  EXPECT_DOUBLE_EQ(
      answer->actual_cost,
      options.prices.Cost(answer->paid.naive, answer->paid.expert));

  // Cheap experts: expert-only plan, zero naive comparisons.
  ThresholdComparator naive2(&*instance, ThresholdModel{delta_n, 0.0}, 8);
  ThresholdComparator expert2(&*instance, ThresholdModel{delta_e, 0.0}, 9);
  options.naive = &naive2;
  options.expert = &expert2;
  options.prices = CostModel{1.0, 2.0};
  Result<CrowdQueryEngine> engine2 = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine2.ok());
  Result<MaxQueryAnswer> answer2 = engine2->Max(instance->AllElements(), u_n);
  ASSERT_TRUE(answer2.ok());
  EXPECT_EQ(answer2->plan.strategy, MaxStrategy::kExpertOnly);
  EXPECT_EQ(answer2->paid.naive, 0);
}

TEST(EngineTest, MaxWithNaiveOptInRunsNaiveOnly) {
  Result<Instance> instance = UniformInstance(300, /*seed=*/11);
  ASSERT_TRUE(instance.ok());
  OracleComparator naive(&*instance);
  OracleComparator expert(&*instance);
  CrowdQueryEngineOptions options;
  options.naive = &naive;
  options.expert = &expert;
  options.prices = CostModel{1.0, 50.0};
  Result<CrowdQueryEngine> engine = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine.ok());

  Result<MaxQueryAnswer> answer = engine->Max(
      instance->AllElements(), /*u_n=*/5, /*allow_naive_accuracy=*/true);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->plan.strategy, MaxStrategy::kNaiveOnly);
  EXPECT_EQ(answer->paid.expert, 0);
  EXPECT_EQ(answer->best, instance->MaxElement());  // Oracle workers.
}

TEST(EngineTest, TopKQuery) {
  Result<Instance> instance = UniformInstance(400, /*seed=*/13);
  ASSERT_TRUE(instance.ok());
  OracleComparator naive(&*instance);
  OracleComparator expert(&*instance);
  CrowdQueryEngineOptions options;
  options.naive = &naive;
  options.expert = &expert;
  Result<CrowdQueryEngine> engine = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine.ok());

  Result<TopKQueryAnswer> answer =
      engine->TopK(instance->AllElements(), /*u_n=*/4, /*k=*/5);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->top.size(), 5u);
  for (size_t j = 0; j < answer->top.size(); ++j) {
    EXPECT_EQ(instance->Rank(answer->top[j]), static_cast<int64_t>(j) + 1);
  }
  EXPECT_GT(answer->actual_cost, 0.0);
}

TEST(EngineTest, AboveQueryValidation) {
  Instance instance({1.0, 2.0, 3.0});
  OracleComparator oracle(&instance);
  CrowdQueryEngineOptions options;
  options.naive = &oracle;
  options.expert = &oracle;
  Result<CrowdQueryEngine> engine = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine.ok());

  EXPECT_FALSE(engine->Above({}, 0).ok());
  EXPECT_FALSE(engine->Above({0, 1}, 1).ok());  // Anchor among items.
  AboveQueryOptions even_votes;
  even_votes.votes_per_item = 2;
  EXPECT_FALSE(engine->Above({0, 2}, 1, even_votes).ok());
  // Ids go through CheckDistinctIds, as at every other entry point.
  EXPECT_EQ(engine->Above({2, 2}, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Above({-1, 2}, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Above({0, 2}, -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, AboveQueryPerfectWithOracles) {
  Result<Instance> instance = UniformInstance(100, /*seed=*/21);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  CrowdQueryEngineOptions options;
  options.naive = &oracle;
  options.expert = &oracle;
  Result<CrowdQueryEngine> engine = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine.ok());

  const ElementId anchor = 0;
  std::vector<ElementId> items;
  for (ElementId e = 1; e < instance->size(); ++e) items.push_back(e);
  Result<AboveQueryAnswer> answer = engine->Above(items, anchor);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->escalated.empty());
  for (ElementId e : answer->above) {
    EXPECT_GT(instance->value(e), instance->value(anchor));
  }
  for (ElementId e : answer->below) {
    EXPECT_LT(instance->value(e), instance->value(anchor));
  }
  EXPECT_EQ(answer->above.size() + answer->below.size(), items.size());
}

TEST(EngineTest, AboveQueryEscalatesBorderlineItemsToExperts) {
  // Values straddling an anchor, several of them within the naive
  // threshold; the expert resolves every escalated item exactly.
  std::vector<double> values = {0.50};  // Anchor.
  for (int i = 1; i <= 10; ++i) values.push_back(0.50 + 0.002 * i);  // Hard.
  for (int i = 1; i <= 10; ++i) values.push_back(0.50 - 0.002 * i);  // Hard.
  for (int i = 1; i <= 10; ++i) values.push_back(0.90 + 0.001 * i);  // Easy.
  for (int i = 1; i <= 10; ++i) values.push_back(0.10 - 0.001 * i);  // Easy.
  Instance instance(values);

  ThresholdComparator naive(&instance, ThresholdModel{0.05, 0.0}, /*seed=*/3);
  OracleComparator expert(&instance);
  CrowdQueryEngineOptions options;
  options.naive = &naive;
  options.expert = &expert;
  options.prices = CostModel{1.0, 30.0};
  Result<CrowdQueryEngine> engine = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine.ok());

  std::vector<ElementId> items;
  for (ElementId e = 1; e < instance.size(); ++e) items.push_back(e);
  AboveQueryOptions above_options;
  above_options.votes_per_item = 7;
  Result<AboveQueryAnswer> answer = engine->Above(items, 0, above_options);
  ASSERT_TRUE(answer.ok());

  // All classifications correct: easy ones by unanimity (w.h.p.), hard
  // ones by the expert. Allow the rare unanimity fluke (p = 2^-6 per hard
  // item) to miss at most one item.
  int64_t wrong = 0;
  for (ElementId e : answer->above) {
    if (instance.value(e) < instance.value(0)) ++wrong;
  }
  for (ElementId e : answer->below) {
    if (instance.value(e) > instance.value(0)) ++wrong;
  }
  EXPECT_LE(wrong, 1);
  // Most of the 20 hard items must have been escalated.
  EXPECT_GE(answer->escalated.size(), 15u);
  EXPECT_EQ(answer->paid.expert,
            static_cast<int64_t>(answer->escalated.size()));
  EXPECT_EQ(answer->paid.naive,
            7 * static_cast<int64_t>(items.size()));
}

TEST(EngineTest, AboveQueryWithoutRefinementUsesNaiveMajority) {
  Instance instance({0.5, 0.501, 0.9});
  ThresholdComparator naive(&instance, ThresholdModel{0.05, 0.0}, /*seed=*/5);
  OracleComparator expert(&instance);
  CrowdQueryEngineOptions options;
  options.naive = &naive;
  options.expert = &expert;
  Result<CrowdQueryEngine> engine = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine.ok());

  AboveQueryOptions above_options;
  above_options.expert_refine = false;
  Result<AboveQueryAnswer> answer =
      engine->Above({1, 2}, 0, above_options);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->paid.expert, 0);
  // Element 2 is easy and must be classified above.
  EXPECT_NE(std::find(answer->above.begin(), answer->above.end(), 2),
            answer->above.end());
}

// One worker class behind injected faults: its model, the executor over it
// and the fault injector over that.
struct FaultyClass {
  FaultyClass(std::unique_ptr<Comparator> model,
              const InjectedFaultOptions& faults)
      : model(std::move(model)), inner(this->model.get()) {
    Result<std::unique_ptr<FaultInjectingBatchExecutor>> created =
        FaultInjectingBatchExecutor::Create(&inner, faults);
    CROWDMAX_CHECK(created.ok());
    faulty = std::move(created).value();
  }

  std::unique_ptr<Comparator> model;
  ComparatorBatchExecutor inner;
  std::unique_ptr<FaultInjectingBatchExecutor> faulty;
};

// ABOVE's fault rule. FindAbove runs on one pair of faulty stacks, and the
// same submissions replay on a twin pair with the same seeds, which shows
// every lost vote and verdict. An item with a lost naive vote escalates;
// an escalated item without an expert verdict takes the naive majority of
// the votes that arrived, the anchor winning ties; both set `partial`.
TEST(AboveTest, LostVotesEscalateAndLostVerdictsTakeTheNaiveMajority) {
  Result<Instance> instance = UniformInstance(80, /*seed=*/31);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(30);
  InjectedFaultOptions naive_faults;
  naive_faults.drop_probability = 0.3;
  naive_faults.seed = 3;
  InjectedFaultOptions expert_faults;
  expert_faults.no_quorum_probability = 0.5;
  expert_faults.seed = 4;
  const auto make_naive = [&] {
    return FaultyClass(std::make_unique<ThresholdComparator>(
                           &*instance, ThresholdModel{delta, 0.0}, 7),
                       naive_faults);
  };
  const auto make_expert = [&] {
    return FaultyClass(std::make_unique<OracleComparator>(&*instance),
                       expert_faults);
  };
  const ElementId anchor = 0;
  std::vector<ElementId> items;
  for (ElementId e = 1; e < instance->size(); ++e) items.push_back(e);
  AboveQueryOptions options;
  options.votes_per_item = 3;

  FaultyClass naive = make_naive();
  FaultyClass expert = make_expert();
  Result<AboveResult> run = FindAbove(items, anchor, options,
                                      naive.faulty.get(), expert.faulty.get());
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  FaultyClass naive_twin = make_naive();
  FaultyClass expert_twin = make_expert();
  std::vector<ComparisonPair> panels;
  for (ElementId item : items) panels.insert(panels.end(), 3, {item, anchor});
  Result<std::vector<BatchTaskResult>> votes =
      naive_twin.faulty->TryExecuteBatch(panels);
  ASSERT_TRUE(votes.ok());
  std::vector<ElementId> above;
  std::vector<ElementId> below;
  std::vector<ElementId> escalated;
  std::vector<std::pair<int64_t, int64_t>> tallies;  // (wins, counted)
  int64_t escalated_by_loss = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    int64_t wins = 0;
    int64_t counted = 0;
    for (size_t v = 0; v < 3; ++v) {
      const BatchTaskResult& vote = (*votes)[3 * i + v];
      if (!vote.answered) continue;
      ++counted;
      if (vote.winner == items[i]) ++wins;
    }
    if (counted == 3 && (wins == 0 || wins == 3)) {
      (wins == 3 ? above : below).push_back(items[i]);
      continue;
    }
    escalated.push_back(items[i]);
    tallies.emplace_back(wins, counted);
    if (wins == 0 || wins == counted) ++escalated_by_loss;
  }
  std::vector<ComparisonPair> asks;
  for (ElementId item : escalated) asks.push_back({item, anchor});
  Result<std::vector<BatchTaskResult>> verdicts =
      expert_twin.faulty->TryExecuteBatch(asks);
  ASSERT_TRUE(verdicts.ok());
  int64_t without_verdict = 0;
  int64_t ties_to_anchor = 0;
  int64_t provisional_overruled = 0;
  for (size_t j = 0; j < escalated.size(); ++j) {
    const BatchTaskResult& verdict = (*verdicts)[j];
    bool is_above = verdict.winner == escalated[j];
    if (!verdict.answered) {
      const auto [wins, counted] = tallies[j];
      ++without_verdict;
      if (2 * wins == counted) ++ties_to_anchor;
      if ((2 * wins > counted) != is_above) ++provisional_overruled;
      is_above = 2 * wins > counted;
    }
    (is_above ? above : below).push_back(escalated[j]);
  }

  // Every branch of the rule is taken: escalation by a lost vote alone, an
  // expert verdict, none, a tie the anchor wins, and a naive majority that
  // overrules the expert's provisional (no-quorum) answer.
  EXPECT_GT(escalated_by_loss, 0);
  EXPECT_GT(without_verdict, 0);
  EXPECT_LT(without_verdict, static_cast<int64_t>(escalated.size()));
  EXPECT_GT(ties_to_anchor, 0);
  EXPECT_GT(provisional_overruled, 0);
  EXPECT_EQ(run->escalated, escalated);
  EXPECT_EQ(run->above, above);
  EXPECT_EQ(run->below, below);
  EXPECT_TRUE(run->partial);
  EXPECT_EQ(run->paid.naive, naive.faulty->comparisons());
  EXPECT_EQ(run->paid.expert, expert.faulty->comparisons());
  EXPECT_EQ(run->naive_steps, 1);
  EXPECT_EQ(run->expert_steps, 1);
}

// A whole-batch failure, of the panels or of the escalations, ends the
// query with its status.
TEST(AboveTest, WholeBatchFailureEndsTheQuery) {
  Result<Instance> instance = UniformInstance(40, /*seed=*/33);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(20);
  std::vector<ElementId> items;
  for (ElementId e = 1; e < instance->size(); ++e) items.push_back(e);
  InjectedFaultOptions healthy;
  InjectedFaultOptions failing;
  failing.unavailable_probability = 0.99;
  failing.seed = 5;
  for (const bool naive_fails : {true, false}) {
    SCOPED_TRACE(naive_fails ? "panels" : "escalations");
    FaultyClass naive(std::make_unique<ThresholdComparator>(
                          &*instance, ThresholdModel{delta, 0.0}, 7),
                      naive_fails ? failing : healthy);
    FaultyClass expert(std::make_unique<OracleComparator>(&*instance),
                       naive_fails ? healthy : failing);
    Result<AboveResult> run = FindAbove(items, 0, AboveQueryOptions{},
                                        naive.faulty.get(),
                                        expert.faulty.get());
    EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ((naive_fails ? naive : expert).faulty->injected_unavailable(),
              1);
  }
}

// Planner regression: a per-query max_comparisons budget threaded through
// QueryService charges the same paid naive comparisons — and trips the
// same budget stop — as the standalone RoundEngine budget gate driving the
// identical filter (same seed, same executor stack shape). The gate
// charges at round boundaries, so exact equality is the assertion.
TEST(PlannerTest, ServiceBudgetMatchesStandaloneRoundEngineGate) {
  Result<Instance> instance = UniformInstance(90, 17);
  ASSERT_TRUE(instance.ok());
  const double delta_naive = instance->DeltaForU(4);
  const double delta_expert = instance->DeltaForU(1);

  QueryServiceOptions options;
  options.shards = {{&*instance, delta_naive, delta_expert}};

  QuerySpec spec;
  spec.kind = QueryKind::kMax;
  spec.u_n = 4;
  spec.seed = 321;
  spec.prices = CostModel{1.0, 100.0};  // Forces the two-phase plan.
  spec.max_comparisons = 120;           // Well below the filter's need.

  Result<QueryOutcome> outcome = QueryService::ExecuteAlone(options, spec);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->status.ok()) << outcome->status.ToString();
  ASSERT_EQ(outcome->plan.strategy, MaxStrategy::kTwoPhase);

  // The standalone baseline: the same hermetic naive stream driving the
  // same budget-gated filter directly on the batched engine.
  ThresholdComparator naive(&*instance, ThresholdModel{delta_naive, 0.0},
                            QueryService::StreamSeed(spec.seed, 1));
  ComparatorBatchExecutor executor(&naive);
  FilterOptions filter;
  filter.u_n = spec.u_n;
  filter.memoize = true;
  filter.max_comparisons = spec.max_comparisons;
  Result<FilterResult> baseline = FilterCandidates(
      instance->AllElements(), filter, &executor);
  ASSERT_TRUE(baseline.ok());

  EXPECT_TRUE(baseline->stopped_by_budget);
  EXPECT_TRUE(outcome->stopped_by_budget);
  EXPECT_EQ(outcome->paid.naive, baseline->paid_comparisons);
  EXPECT_LE(outcome->paid.naive, spec.max_comparisons);
}

TEST(EngineTest, EmptyItemSetRejected) {
  Instance instance({1.0});
  OracleComparator oracle(&instance);
  CrowdQueryEngineOptions options;
  options.naive = &oracle;
  options.expert = &oracle;
  Result<CrowdQueryEngine> engine = CrowdQueryEngine::Create(options);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Max({}, 1).ok());
}

}  // namespace
}  // namespace crowdmax
