// Tests for Algorithm 1 (FindMaxWithExperts): end-to-end guarantees under
// the two-class threshold model, comparison budgets, and cost accounting.

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/batched.h"
#include "core/cost.h"
#include "core/expert_max.h"
#include "core/instance.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

struct TwoClassSetup {
  Instance instance;
  double delta_n;
  double delta_e;
  int64_t u_n;
  int64_t u_e;
};

TwoClassSetup MakeSetup(int64_t n, int64_t u_n_target, int64_t u_e_target,
                        uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  TwoClassSetup setup{std::move(instance).value(), 0.0, 0.0, 0, 0};
  setup.delta_n = setup.instance.DeltaForU(u_n_target);
  setup.delta_e = setup.instance.DeltaForU(u_e_target);
  setup.u_n = setup.instance.CountWithin(setup.delta_n);
  setup.u_e = setup.instance.CountWithin(setup.delta_e);
  return setup;
}

TEST(ExpertMaxTest, RejectsEmptyInput) {
  Instance instance({1.0});
  OracleComparator naive(&instance);
  OracleComparator expert(&instance);
  ExpertMaxOptions options;
  EXPECT_FALSE(FindMaxWithExperts({}, &naive, &expert, options).ok());
}

TEST(ExpertMaxTest, ExactWithOracles) {
  Result<Instance> instance = UniformInstance(400, /*seed=*/1);
  ASSERT_TRUE(instance.ok());
  OracleComparator naive(&*instance);
  OracleComparator expert(&*instance);
  ExpertMaxOptions options;
  options.filter.u_n = 5;
  Result<ExpertMaxResult> result =
      FindMaxWithExperts(instance->AllElements(), &naive, &expert, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, instance->MaxElement());
}

// Main guarantee sweep: output within 2*delta_e, candidate set contains M,
// comparison budgets respected.
class ExpertMaxGuaranteeSweep
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, uint64_t>> {};

TEST_P(ExpertMaxGuaranteeSweep, TheoremOneHolds) {
  const auto [n, u_n_target, u_e_target, seed] = GetParam();
  TwoClassSetup setup = MakeSetup(n, u_n_target, u_e_target, seed);

  ThresholdComparator naive(&setup.instance,
                            ThresholdModel{setup.delta_n, 0.0}, seed + 1);
  ThresholdComparator expert(&setup.instance,
                             ThresholdModel{setup.delta_e, 0.0}, seed + 2);

  ExpertMaxOptions options;
  options.filter.u_n = setup.u_n;
  Result<ExpertMaxResult> result = FindMaxWithExperts(
      setup.instance.AllElements(), &naive, &expert, options);
  ASSERT_TRUE(result.ok());

  const ElementId max_elem = setup.instance.MaxElement();
  // Candidates contain M (Lemma 3) and are few.
  EXPECT_NE(std::find(result->candidates.begin(), result->candidates.end(),
                      max_elem),
            result->candidates.end());
  EXPECT_LE(static_cast<int64_t>(result->candidates.size()),
            2 * setup.u_n - 1);
  // Output within 2*delta_e (Theorem 1).
  EXPECT_LE(setup.instance.Distance(result->best, max_elem),
            2.0 * setup.delta_e + 1e-12);
  // Comparison budgets: 4*n*u_n naive, 2*(2*u_n)^{3/2} expert.
  EXPECT_LE(result->paid.naive, 4 * n * setup.u_n);
  EXPECT_LE(result->paid.expert,
            TwoMaxFindComparisonUpperBound(2 * setup.u_n - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExpertMaxGuaranteeSweep,
    ::testing::Combine(::testing::Values<int64_t>(100, 500, 1500),
                       ::testing::Values<int64_t>(5, 15),
                       ::testing::Values<int64_t>(2, 5),
                       ::testing::Values<uint64_t>(3, 4)));

TEST(ExpertMaxTest, RandomizedPhase2MeetsThreeDeltaGuarantee) {
  int within = 0;
  constexpr int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    TwoClassSetup setup =
        MakeSetup(300, 12, 4, /*seed=*/900 + static_cast<uint64_t>(t));
    ThresholdComparator naive(&setup.instance,
                              ThresholdModel{setup.delta_n, 0.0},
                              /*seed=*/1000 + static_cast<uint64_t>(t));
    ThresholdComparator expert(&setup.instance,
                               ThresholdModel{setup.delta_e, 0.0},
                               /*seed=*/1100 + static_cast<uint64_t>(t));
    ExpertMaxOptions options;
    options.filter.u_n = setup.u_n;
    options.phase2 = Phase2Algorithm::kRandomized;
    options.randomized.seed = 1200 + static_cast<uint64_t>(t);
    Result<ExpertMaxResult> result = FindMaxWithExperts(
        setup.instance.AllElements(), &naive, &expert, options);
    ASSERT_TRUE(result.ok());
    if (setup.instance.Distance(result->best, setup.instance.MaxElement()) <=
        3.0 * setup.delta_e + 1e-12) {
      ++within;
    }
  }
  EXPECT_GE(within, kTrials - 2);
}

TEST(ExpertMaxTest, AllPlayAllPhase2Works) {
  TwoClassSetup setup = MakeSetup(200, 8, 3, /*seed=*/21);
  ThresholdComparator naive(&setup.instance,
                            ThresholdModel{setup.delta_n, 0.0}, /*seed=*/22);
  ThresholdComparator expert(&setup.instance,
                             ThresholdModel{setup.delta_e, 0.0}, /*seed=*/23);
  ExpertMaxOptions options;
  options.filter.u_n = setup.u_n;
  options.phase2 = Phase2Algorithm::kAllPlayAll;
  Result<ExpertMaxResult> result = FindMaxWithExperts(
      setup.instance.AllElements(), &naive, &expert, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(setup.instance.Distance(result->best, setup.instance.MaxElement()),
            2.0 * setup.delta_e + 1e-12);
  // All-play-all pays a full tournament over the candidates.
  const int64_t s = static_cast<int64_t>(result->candidates.size());
  EXPECT_EQ(result->paid.expert, s * (s - 1) / 2);
}

// On an executor stack the two-phase max runs the phase-2 solver it is
// asked for, as it does on a comparator: an all-play-all pays every
// candidate pair once (2-MaxFind pays fewer), and the randomized solver
// returns the comparator run's answer after as many rounds.
TEST(ExpertMaxTest, ExecutorRunsTheRequestedPhase2Solver) {
  Result<Instance> instance = UniformInstance(40, /*seed=*/9);
  ASSERT_TRUE(instance.ok());
  ExpertMaxOptions options;
  // |items| < 2 u_n: phase 1 keeps all 40 elements for phase 2.
  options.filter.u_n = 25;
  options.randomized.group_size_override = 4;
  auto run_on_executors = [&](const ExpertMaxOptions& run_options) {
    OracleComparator naive(&*instance);
    OracleComparator expert(&*instance);
    ComparatorBatchExecutor naive_executor(&naive);
    ComparatorBatchExecutor expert_executor(&expert);
    return FindMaxWithExperts(instance->AllElements(), &naive_executor,
                              &expert_executor, run_options);
  };

  options.phase2 = Phase2Algorithm::kAllPlayAll;
  Result<ExpertMaxResult> all_play_all = run_on_executors(options);
  ASSERT_TRUE(all_play_all.ok());
  const int64_t s = static_cast<int64_t>(all_play_all->candidates.size());
  ASSERT_GE(s, 10);
  EXPECT_EQ(all_play_all->paid.expert, s * (s - 1) / 2);
  EXPECT_EQ(all_play_all->best, instance->MaxElement());

  options.phase2 = Phase2Algorithm::kRandomized;
  Result<ExpertMaxResult> randomized = run_on_executors(options);
  ASSERT_TRUE(randomized.ok());
  OracleComparator naive(&*instance);
  OracleComparator expert(&*instance);
  Result<ExpertMaxResult> reference =
      FindMaxWithExperts(instance->AllElements(), &naive, &expert, options);
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(reference->phase2_rounds, 0);
  EXPECT_EQ(randomized->best, reference->best);
  EXPECT_EQ(randomized->phase2_rounds, reference->phase2_rounds);
}

TEST(ExpertMaxTest, ExpertComparisonsIndependentOfN) {
  // Figure 4's headline: expert comparisons depend on u_n, not on n.
  std::vector<int64_t> expert_counts;
  for (int64_t n : {500, 1000, 2000, 4000}) {
    TwoClassSetup setup =
        MakeSetup(n, 10, 5, /*seed=*/static_cast<uint64_t>(n) + 31);
    ThresholdComparator naive(&setup.instance,
                              ThresholdModel{setup.delta_n, 0.0},
                              /*seed=*/32);
    ThresholdComparator expert(&setup.instance,
                               ThresholdModel{setup.delta_e, 0.0},
                               /*seed=*/33);
    ExpertMaxOptions options;
    options.filter.u_n = setup.u_n;
    Result<ExpertMaxResult> result = FindMaxWithExperts(
        setup.instance.AllElements(), &naive, &expert, options);
    ASSERT_TRUE(result.ok());
    expert_counts.push_back(result->paid.expert);
  }
  // Every run's expert cost is bounded by the same u_n-derived budget.
  for (int64_t count : expert_counts) {
    EXPECT_LE(count, TwoMaxFindComparisonUpperBound(2 * 10 - 1) + 10);
  }
}

TEST(ExpertMaxTest, CostUnderModel) {
  ExpertMaxResult result;
  result.paid.naive = 1000;
  result.paid.expert = 50;
  CostModel model;
  model.naive_cost = 1.0;
  model.expert_cost = 20.0;
  EXPECT_DOUBLE_EQ(result.CostUnder(model), 1000.0 + 50.0 * 20.0);
}

TEST(CostModelTest, RatioIsWellDefinedOnDegenerateModels) {
  // Normal premium.
  EXPECT_DOUBLE_EQ((CostModel{1.0, 20.0}).Ratio(), 20.0);
  // All-free model: Valid() admits it, and the 0/0 must not surface as
  // NaN into budget arithmetic — no expert premium means ratio 1.
  EXPECT_DOUBLE_EQ((CostModel{0.0, 0.0}).Ratio(), 1.0);
  // Free naive work but priced experts: an unbounded premium.
  EXPECT_TRUE(std::isinf((CostModel{0.0, 5.0}).Ratio()));
  EXPECT_GT((CostModel{0.0, 5.0}).Ratio(), 0.0);
}

TEST(BudgetedMaxTest, AmpleBudgetBehavesLikeUnconstrainedRun) {
  TwoClassSetup setup = MakeSetup(600, 10, 3, /*seed=*/61);
  ThresholdComparator naive(&setup.instance,
                            ThresholdModel{setup.delta_n, 0.0}, 62);
  ThresholdComparator expert(&setup.instance,
                             ThresholdModel{setup.delta_e, 0.0}, 63);
  BudgetedMaxOptions options;
  options.base.filter.u_n = setup.u_n;
  options.prices = CostModel{1.0, 20.0};
  options.budget = 1e9;
  Result<BudgetedMaxResult> result = BudgetedFindMaxWithExperts(
      setup.instance.AllElements(), &naive, &expert, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->filter_stopped_by_budget);
  EXPECT_TRUE(result->within_budget);
  EXPECT_LE(setup.instance.Distance(result->result.best,
                                    setup.instance.MaxElement()),
            2.0 * setup.delta_e + 1e-12);
  EXPECT_LE(static_cast<int64_t>(result->result.candidates.size()),
            2 * setup.u_n - 1);
}

TEST(BudgetedMaxTest, TightBudgetStopsPhaseOneButKeepsTheMaximum) {
  TwoClassSetup setup = MakeSetup(1200, 10, 3, /*seed=*/71);
  ThresholdComparator naive(&setup.instance,
                            ThresholdModel{setup.delta_n, 0.0}, 72);
  ThresholdComparator expert(&setup.instance,
                             ThresholdModel{setup.delta_e, 0.0}, 73);
  BudgetedMaxOptions options;
  options.base.filter.u_n = setup.u_n;
  options.prices = CostModel{1.0, 20.0};
  // Expert reserve + roughly one filtering round's worth of naive funds.
  const double reserve =
      static_cast<double>(TwoMaxFindComparisonUpperBound(2 * setup.u_n - 1)) *
      20.0;
  options.budget = reserve + 1200.0 * 2.0 * static_cast<double>(setup.u_n) +
                   5000.0;
  Result<BudgetedMaxResult> result = BudgetedFindMaxWithExperts(
      setup.instance.AllElements(), &naive, &expert, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->filter_stopped_by_budget);
  // The maximum must still be in the (larger) candidate set and, with the
  // expert threshold, the answer stays within the guarantee.
  EXPECT_NE(std::find(result->result.candidates.begin(),
                      result->result.candidates.end(),
                      setup.instance.MaxElement()),
            result->result.candidates.end());
  EXPECT_LE(setup.instance.Distance(result->result.best,
                                    setup.instance.MaxElement()),
            2.0 * setup.delta_e + 1e-12);
}

TEST(BudgetedMaxTest, InsufficientBudgetRejected) {
  TwoClassSetup setup = MakeSetup(300, 8, 3, /*seed=*/81);
  ThresholdComparator naive(&setup.instance,
                            ThresholdModel{setup.delta_n, 0.0}, 82);
  ThresholdComparator expert(&setup.instance,
                             ThresholdModel{setup.delta_e, 0.0}, 83);
  BudgetedMaxOptions options;
  options.base.filter.u_n = setup.u_n;
  options.prices = CostModel{1.0, 20.0};
  options.budget = 10.0;  // Cannot even cover the expert reserve.
  EXPECT_FALSE(BudgetedFindMaxWithExperts(setup.instance.AllElements(),
                                          &naive, &expert, options)
                   .ok());
}

TEST(ExpertMaxTest, UnderestimatedUnDegradesGracefully) {
  // With u_n far too small the true maximum may be filtered out, but the
  // algorithm must still return a valid element.
  TwoClassSetup setup = MakeSetup(500, 20, 5, /*seed=*/41);
  ThresholdComparator naive(&setup.instance,
                            ThresholdModel{setup.delta_n, 0.0}, /*seed=*/42);
  ThresholdComparator expert(&setup.instance,
                             ThresholdModel{setup.delta_e, 0.0}, /*seed=*/43);
  ExpertMaxOptions options;
  options.filter.u_n = 2;  // True value ~20.
  Result<ExpertMaxResult> result = FindMaxWithExperts(
      setup.instance.AllElements(), &naive, &expert, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(setup.instance.Contains(result->best));
}

}  // namespace
}  // namespace crowdmax
