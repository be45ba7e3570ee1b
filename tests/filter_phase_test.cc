// Tests for Phase 1 (Algorithm 2), centred on the Lemma 3 guarantees:
// the maximum survives, |S| <= 2*u_n - 1, and at most 4*n*u_n comparisons
// are issued — under exact, noisy, and adversarial below-threshold
// behaviour, with and without the Appendix-A optimizations.

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "tests/per_call_comparator.h"

namespace crowdmax {
namespace {

bool Contains(const std::vector<ElementId>& v, ElementId e) {
  return std::find(v.begin(), v.end(), e) != v.end();
}

TEST(FilterPhaseTest, RejectsInvalidOptions) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);

  FilterOptions bad_u;
  bad_u.u_n = 0;
  EXPECT_FALSE(FilterCandidates(instance.AllElements(), bad_u, &oracle).ok());

  FilterOptions bad_multiplier;
  bad_multiplier.u_n = 1;
  bad_multiplier.group_size_multiplier = 1;
  EXPECT_FALSE(
      FilterCandidates(instance.AllElements(), bad_multiplier, &oracle).ok());
}

TEST(FilterPhaseTest, RejectsDuplicateIds) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  FilterOptions options;
  options.u_n = 1;
  EXPECT_FALSE(FilterCandidates({0, 0}, options, &oracle).ok());
}

TEST(FilterPhaseTest, RejectsNegativeAndRepeatedIdsTyped) {
  const Instance instance({1.0, 2.0, 3.0});
  OracleComparator oracle(&instance);
  FilterOptions options;
  options.u_n = 1;
  for (const std::vector<ElementId>& items :
       std::vector<std::vector<ElementId>>{
           {0, -3, 1}, {2, 0, 1, 2}, {0, 2147483647, 5, 2147483647}}) {
    const Result<FilterResult> result =
        FilterCandidates(items, options, &oracle);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FilterPhaseTest, IdOutsideTheInstanceIsATypedErrorNotAnAbort) {
  // The worker model refuses a pair with an id outside its instance; the
  // comparator backends report that pair instead of aborting. A comparator
  // without a batch interface — the oracle, or the model answering per
  // call — refuses the same id before reading it.
  Result<Instance> instance = UniformInstance(100, 5);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(5);
  for (const int64_t threads : {0, 4}) {
    for (const bool memoize : {false, true}) {
      ThresholdComparator naive(&*instance, ThresholdModel{delta, 0.1},
                                /*seed=*/3);
      OracleComparator oracle(&*instance);
      ThresholdComparator model(&*instance, ThresholdModel{delta, 0.1},
                                /*seed=*/3);
      PerCallComparator per_call(&model);
      const std::pair<const char*, Comparator*> comparators[] = {
          {"batch", &naive}, {"oracle", &oracle}, {"per_call", &per_call}};
      for (const auto& [name, comparator] : comparators) {
        FilterOptions options;
        options.u_n = 5;
        options.memoize = memoize;
        options.threads = threads;
        std::vector<ElementId> items = instance->AllElements();
        items[50] = 1000;
        const Result<FilterResult> result =
            FilterCandidates(items, options, comparator);
        const std::string context = std::string(name) +
                                    " threads=" + std::to_string(threads) +
                                    " memoize=" + std::to_string(memoize);
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << context;
        EXPECT_NE(result.status().message().find("1000"), std::string::npos)
            << context << ": " << result.status().ToString();
      }
    }
  }
}

TEST(FilterPhaseTest, SmallInputPassesThroughUntouched) {
  Instance instance({1.0, 2.0, 3.0});
  OracleComparator oracle(&instance);
  FilterOptions options;
  options.u_n = 2;  // 2*u_n = 4 > 3, loop never runs.
  Result<FilterResult> result =
      FilterCandidates(instance.AllElements(), options, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates, instance.AllElements());
  EXPECT_EQ(result->paid_comparisons, 0);
  EXPECT_EQ(result->rounds, 0);
}

TEST(FilterPhaseTest, EmptyInputYieldsEmptyCandidates) {
  Instance instance({1.0});
  OracleComparator oracle(&instance);
  FilterOptions options;
  options.u_n = 1;
  Result<FilterResult> result = FilterCandidates({}, options, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->candidates.empty());
}

TEST(FilterPhaseTest, ExactComparatorKeepsTheMaximum) {
  Result<Instance> instance = UniformInstance(500, /*seed=*/1);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  FilterOptions options;
  options.u_n = 5;
  Result<FilterResult> result =
      FilterCandidates(instance->AllElements(), options, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Contains(result->candidates, instance->MaxElement()));
  EXPECT_LE(static_cast<int64_t>(result->candidates.size()),
            2 * options.u_n - 1);
}

// Lemma 3 sweep over (n, u_n, seed) with the threshold model, fresh coin.
class Lemma3Sweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, uint64_t>> {
};

TEST_P(Lemma3Sweep, GuaranteesHoldUnderThresholdModel) {
  const auto [n, u_target, seed] = GetParam();
  Result<Instance> instance = UniformInstance(n, seed);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(u_target);
  const int64_t u_n = instance->CountWithin(delta);

  ThresholdComparator cmp(&*instance, ThresholdModel{delta, 0.0}, seed + 1);
  FilterOptions options;
  options.u_n = u_n;
  Result<FilterResult> result =
      FilterCandidates(instance->AllElements(), options, &cmp);
  ASSERT_TRUE(result.ok());

  // (1) M in S.
  EXPECT_TRUE(Contains(result->candidates, instance->MaxElement()));
  // (2) |S| <= 2*u_n - 1.
  EXPECT_LE(static_cast<int64_t>(result->candidates.size()), 2 * u_n - 1);
  // (3) comparisons <= 4*n*u_n.
  EXPECT_LE(result->paid_comparisons, FilterComparisonUpperBound(n, u_n));
  EXPECT_EQ(result->paid_comparisons, result->issued_comparisons);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Lemma3Sweep,
    ::testing::Combine(::testing::Values<int64_t>(50, 200, 1000),
                       ::testing::Values<int64_t>(2, 5, 12),
                       ::testing::Values<uint64_t>(11, 22, 33)));

TEST(FilterPhaseTest, MaximumSurvivesAdversarialTies) {
  // Below-threshold answers chosen adversarially (lower value wins) cannot
  // evict the maximum: the guarantee is combinatorial (Lemma 1).
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Result<Instance> instance = UniformInstance(300, seed);
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(6);
    const int64_t u_n = instance->CountWithin(delta);
    AdversarialComparator cmp(&*instance, delta,
                              AdversarialPolicy::kLowerValueWins);
    FilterOptions options;
    options.u_n = u_n;
    Result<FilterResult> result =
        FilterCandidates(instance->AllElements(), options, &cmp);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(Contains(result->candidates, instance->MaxElement()));
    EXPECT_LE(static_cast<int64_t>(result->candidates.size()), 2 * u_n - 1);
  }
}

TEST(FilterPhaseTest, OverestimatingUnPreservesCorrectness) {
  Result<Instance> instance = UniformInstance(400, /*seed=*/9);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(4);
  ThresholdComparator cmp(&*instance, ThresholdModel{delta, 0.0}, /*seed=*/10);
  FilterOptions options;
  options.u_n = 20;  // Overestimate (true value is ~4).
  Result<FilterResult> result =
      FilterCandidates(instance->AllElements(), options, &cmp);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Contains(result->candidates, instance->MaxElement()));
}

TEST(FilterPhaseTest, MemoizationNeverPaysForRepeatedPairs) {
  Result<Instance> instance = UniformInstance(600, /*seed=*/12);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(8);
  const int64_t u_n = instance->CountWithin(delta);

  ThresholdComparator::Options worker;
  worker.model = ThresholdModel{delta, 0.0};
  worker.tie_policy = TiePolicy::kPersistentArbitrary;

  FilterOptions plain;
  plain.u_n = u_n;
  FilterOptions memoized = plain;
  memoized.memoize = true;

  ThresholdComparator cmp_plain(&*instance, worker, /*seed=*/13);
  ThresholdComparator cmp_memo(&*instance, worker, /*seed=*/13);

  Result<FilterResult> r_plain =
      FilterCandidates(instance->AllElements(), plain, &cmp_plain);
  Result<FilterResult> r_memo =
      FilterCandidates(instance->AllElements(), memoized, &cmp_memo);
  ASSERT_TRUE(r_plain.ok());
  ASSERT_TRUE(r_memo.ok());

  // Same sticky answers => identical candidate sets, but the memoized run
  // pays at most as much and issues at least as much as it pays.
  EXPECT_EQ(r_plain->candidates, r_memo->candidates);
  EXPECT_LE(r_memo->paid_comparisons, r_plain->paid_comparisons);
  EXPECT_GE(r_memo->issued_comparisons, r_memo->paid_comparisons);
}

TEST(FilterPhaseTest, GlobalLossCounterOnlyRemovesNonMaxima) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    Result<Instance> instance = UniformInstance(800, seed);
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(10);
    const int64_t u_n = instance->CountWithin(delta);
    ThresholdComparator cmp(&*instance, ThresholdModel{delta, 0.0}, seed + 1);

    FilterOptions options;
    options.u_n = u_n;
    options.global_loss_counter = true;
    options.memoize = true;
    Result<FilterResult> result =
        FilterCandidates(instance->AllElements(), options, &cmp);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(Contains(result->candidates, instance->MaxElement()));
    EXPECT_LE(static_cast<int64_t>(result->candidates.size()), 2 * u_n - 1);
  }
}

TEST(FilterPhaseTest, RoundSizesDecreaseGeometrically) {
  Result<Instance> instance = UniformInstance(2000, /*seed=*/31);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(5);
  ThresholdComparator cmp(&*instance, ThresholdModel{delta, 0.0}, /*seed=*/32);
  FilterOptions options;
  options.u_n = instance->CountWithin(delta);
  Result<FilterResult> result =
      FilterCandidates(instance->AllElements(), options, &cmp);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->rounds, 2);
  for (size_t i = 1; i < result->round_sizes.size(); ++i) {
    EXPECT_LT(result->round_sizes[i], result->round_sizes[i - 1]);
  }
  // Full groups shrink to at most (2*u_n - 1) / (4*u_n) < 1/2 per round.
  EXPECT_LE(result->round_sizes.back(), result->round_sizes.front());
}

TEST(FilterPhaseTest, LargerGroupMultiplierStillCorrect) {
  Result<Instance> instance = UniformInstance(500, /*seed=*/41);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(6);
  const int64_t u_n = instance->CountWithin(delta);
  for (int64_t multiplier : {2, 4, 8}) {
    ThresholdComparator cmp(&*instance, ThresholdModel{delta, 0.0},
                            /*seed=*/42);
    FilterOptions options;
    options.u_n = u_n;
    options.group_size_multiplier = multiplier;
    Result<FilterResult> result =
        FilterCandidates(instance->AllElements(), options, &cmp);
    ASSERT_TRUE(result.ok()) << "multiplier=" << multiplier;
    EXPECT_TRUE(Contains(result->candidates, instance->MaxElement()))
        << "multiplier=" << multiplier;
    EXPECT_LE(static_cast<int64_t>(result->candidates.size()), 2 * u_n - 1);
  }
}

TEST(FilterPhaseTest, ResidualEpsilonRarelyDropsTheMaximum) {
  // With epsilon > 0 the guarantee is probabilistic; at epsilon = 0.02 and
  // u_n = 8 the maximum should survive in the overwhelming majority of
  // runs.
  int survived = 0;
  constexpr int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(300, /*seed=*/100 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(8);
    ThresholdComparator cmp(&*instance, ThresholdModel{delta, 0.02},
                            /*seed=*/200 + static_cast<uint64_t>(t));
    FilterOptions options;
    options.u_n = instance->CountWithin(delta);
    Result<FilterResult> result =
        FilterCandidates(instance->AllElements(), options, &cmp);
    ASSERT_TRUE(result.ok());
    if (Contains(result->candidates, instance->MaxElement())) ++survived;
  }
  EXPECT_GE(survived, kTrials - 4);
}

TEST(FilterPhaseTest, EmptyRoundDegradesGracefully) {
  // Packed instance + fair coin + u_n = 1: groups of 4 demand 3 wins to
  // survive, which a balanced coin round often denies to everyone. The
  // filter must never return an empty set for non-empty input.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Result<Instance> packed = PackedInstance(64, seed);
    ASSERT_TRUE(packed.ok());
    ThresholdComparator coin(&*packed, ThresholdModel{1.0, 0.0}, seed + 100);
    FilterOptions options;
    options.u_n = 1;  // Severe underestimate: the true u is 64.
    Result<FilterResult> result =
        FilterCandidates(packed->AllElements(), options, &coin);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->candidates.empty());
    if (result->hit_empty_round) {
      // The pre-round set was preserved; it may exceed 2*u_n - 1.
      EXPECT_GE(static_cast<int64_t>(result->candidates.size()), 2);
    }
  }
}

TEST(FilterPhaseTest, ComparisonBudgetStopsEarlyAndKeepsTheMaximum) {
  Result<Instance> instance = UniformInstance(1000, /*seed=*/51);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(8);
  const int64_t u_n = instance->CountWithin(delta);

  // Unlimited run for reference.
  ThresholdComparator cmp_full(&*instance, ThresholdModel{delta, 0.0}, 52);
  FilterOptions unlimited;
  unlimited.u_n = u_n;
  Result<FilterResult> full =
      FilterCandidates(instance->AllElements(), unlimited, &cmp_full);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->stopped_by_budget);

  // Budget that affords the first round only.
  ThresholdComparator cmp_capped(&*instance, ThresholdModel{delta, 0.0}, 52);
  FilterOptions capped = unlimited;
  capped.max_comparisons = full->paid_comparisons / 2;
  Result<FilterResult> partial =
      FilterCandidates(instance->AllElements(), capped, &cmp_capped);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->stopped_by_budget);
  EXPECT_LE(partial->paid_comparisons, capped.max_comparisons);
  EXPECT_LT(partial->rounds, full->rounds);
  // Early stop keeps MORE candidates, never fewer — and M among them.
  EXPECT_GE(partial->candidates.size(), full->candidates.size());
  EXPECT_TRUE(Contains(partial->candidates, instance->MaxElement()));
}

TEST(FilterPhaseTest, BudgetTooSmallForAnyRoundReturnsInputUntouched) {
  Result<Instance> instance = UniformInstance(200, /*seed=*/61);
  ASSERT_TRUE(instance.ok());
  ThresholdComparator cmp(&*instance, ThresholdModel{0.01, 0.0}, 62);
  FilterOptions options;
  options.u_n = 5;
  options.max_comparisons = 3;  // Cannot afford any group tournament.
  Result<FilterResult> result =
      FilterCandidates(instance->AllElements(), options, &cmp);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stopped_by_budget);
  EXPECT_EQ(result->candidates, instance->AllElements());
  EXPECT_EQ(result->paid_comparisons, 0);
}

TEST(FilterPhaseTest, NegativeBudgetRejected) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  FilterOptions options;
  options.u_n = 1;
  options.max_comparisons = -1;
  EXPECT_FALSE(FilterCandidates({0, 1}, options, &oracle).ok());
}

TEST(FilterPhaseTest, UpperBoundHelper) {
  EXPECT_EQ(FilterComparisonUpperBound(1000, 10), 40000);
  EXPECT_EQ(FilterComparisonUpperBound(0, 10), 0);
}

}  // namespace
}  // namespace crowdmax
