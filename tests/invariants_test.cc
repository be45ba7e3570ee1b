// Randomized cross-module invariant sweeps: for many random
// configurations (size, u targets, tie policy, optimizations), the
// library's contracts must hold simultaneously. These complement the
// per-module tests with breadth — each seed exercises the full pipeline.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/batched.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/maxfind.h"
#include "core/topk.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

struct RandomConfig {
  int64_t n;
  int64_t u_n_target;
  int64_t u_e_target;
  TiePolicy tie_policy;
  bool memoize;
  bool loss_counter;
  int64_t group_multiplier;
};

RandomConfig DrawConfig(Rng* rng) {
  RandomConfig config;
  config.n = rng->NextInt(30, 1200);
  config.u_n_target = rng->NextInt(2, std::max<int64_t>(3, config.n / 12));
  config.u_e_target = rng->NextInt(1, std::max<int64_t>(2, config.u_n_target / 2));
  config.tie_policy = rng->NextBernoulli(0.5) ? TiePolicy::kFreshCoin
                                              : TiePolicy::kPersistentArbitrary;
  config.memoize = rng->NextBernoulli(0.5);
  config.loss_counter = rng->NextBernoulli(0.5);
  config.group_multiplier = rng->NextBernoulli(0.3) ? 2 : 4;
  return config;
}

class PipelineInvariantSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineInvariantSweep, AllContractsHold) {
  Rng rng(GetParam());
  for (int repetition = 0; repetition < 6; ++repetition) {
    const RandomConfig config = DrawConfig(&rng);
    Result<Instance> instance = UniformInstance(config.n, rng.Fork());
    ASSERT_TRUE(instance.ok());
    const double delta_n = instance->DeltaForU(config.u_n_target);
    const double delta_e = instance->DeltaForU(config.u_e_target);
    const int64_t u_n = instance->CountWithin(delta_n);

    ThresholdComparator::Options naive_options;
    naive_options.model = ThresholdModel{delta_n, 0.0};
    naive_options.tie_policy = config.tie_policy;
    ThresholdComparator naive(&*instance, naive_options, rng.Fork());
    ThresholdComparator expert(&*instance, ThresholdModel{delta_e, 0.0},
                               rng.Fork());

    ExpertMaxOptions options;
    options.filter.u_n = u_n;
    options.filter.memoize = config.memoize;
    options.filter.global_loss_counter = config.loss_counter;
    options.filter.group_size_multiplier = config.group_multiplier;

    Result<ExpertMaxResult> result = FindMaxWithExperts(
        instance->AllElements(), &naive, &expert, options);
    ASSERT_TRUE(result.ok()) << "n=" << config.n << " u_n=" << u_n;

    // Contract 1: the returned element exists and is within 2*delta_e.
    ASSERT_TRUE(instance->Contains(result->best));
    EXPECT_LE(instance->Distance(result->best, instance->MaxElement()),
              2.0 * delta_e + 1e-12)
        << "n=" << config.n << " u_n=" << u_n;

    // Contract 2: the true maximum survived phase 1.
    EXPECT_NE(std::find(result->candidates.begin(), result->candidates.end(),
                        instance->MaxElement()),
              result->candidates.end());

    // Contract 3: candidate-set size bound (no degradation flags expected
    // with a correct u_n).
    EXPECT_FALSE(result->filter_hit_empty_round);
    if (config.n >= 2 * u_n) {
      EXPECT_LE(static_cast<int64_t>(result->candidates.size()), 2 * u_n - 1);
    }

    // Contract 4: comparison budgets.
    EXPECT_LE(result->issued.naive,
              options.filter.group_size_multiplier * config.n * u_n);
    EXPECT_LE(result->paid.naive, result->issued.naive);
    EXPECT_LE(result->paid.expert,
              TwoMaxFindComparisonUpperBound(
                  static_cast<int64_t>(result->candidates.size())));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineInvariantSweep,
                         ::testing::Range<uint64_t>(1, 9));

class BatchedEquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedEquivalenceSweep, BatchedMatchesSequentialEverywhere) {
  Rng rng(GetParam() * 7919);
  for (int repetition = 0; repetition < 4; ++repetition) {
    const int64_t n = rng.NextInt(20, 500);
    const int64_t u_target = rng.NextInt(2, std::max<int64_t>(3, n / 10));
    Result<Instance> instance = UniformInstance(n, rng.Fork());
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(u_target);

    ThresholdComparator::Options worker_options;
    worker_options.model = ThresholdModel{delta, 0.0};
    worker_options.tie_policy = TiePolicy::kPersistentArbitrary;
    const uint64_t worker_seed = rng.Fork();

    FilterOptions filter;
    filter.u_n = instance->CountWithin(delta);

    ThresholdComparator seq_worker(&*instance, worker_options, worker_seed);
    Result<FilterResult> sequential =
        FilterCandidates(instance->AllElements(), filter, &seq_worker);

    ThresholdComparator batch_worker(&*instance, worker_options, worker_seed);
    ComparatorBatchExecutor executor(&batch_worker);
    Result<FilterResult> batched =
        FilterCandidates(instance->AllElements(), filter, &executor);

    ASSERT_TRUE(sequential.ok() && batched.ok());
    EXPECT_EQ(batched->candidates, sequential->candidates)
        << "n=" << n << " u=" << filter.u_n;
    EXPECT_EQ(batched->paid_comparisons,
              sequential->paid_comparisons);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedEquivalenceSweep,
                         ::testing::Range<uint64_t>(1, 7));

class TopKInvariantSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKInvariantSweep, TopKContractsHold) {
  Rng rng(GetParam() * 104729);
  for (int repetition = 0; repetition < 4; ++repetition) {
    const int64_t n = rng.NextInt(40, 600);
    const int64_t k = rng.NextInt(1, 8);
    Result<Instance> instance = UniformInstance(n, rng.Fork());
    ASSERT_TRUE(instance.ok());
    const double delta_n = instance->DeltaForU(5);
    const double delta_e = instance->DeltaForU(2);

    std::vector<ElementId> by_rank = instance->AllElements();
    std::sort(by_rank.begin(), by_rank.end(), [&](ElementId a, ElementId b) {
      return instance->value(a) > instance->value(b);
    });
    int64_t blind_spot = 1;
    for (int64_t j = 0; j < k; ++j) {
      blind_spot = std::max(
          blind_spot,
          instance->CountWithinOf(by_rank[static_cast<size_t>(j)], delta_n));
    }

    ThresholdComparator naive(&*instance, ThresholdModel{delta_n, 0.0},
                              rng.Fork());
    ThresholdComparator expert(&*instance, ThresholdModel{delta_e, 0.0},
                               rng.Fork());
    TopKOptions options;
    options.k = k;
    options.filter.u_n = blind_spot;
    Result<TopKResult> result = FindTopKWithExperts(instance->AllElements(),
                                                    &naive, &expert, options);
    ASSERT_TRUE(result.ok()) << "n=" << n << " k=" << k;
    ASSERT_EQ(result->top.size(), static_cast<size_t>(k));
    for (int64_t j = 0; j < k; ++j) {
      EXPECT_GE(
          instance->value(result->top[static_cast<size_t>(j)]),
          instance->value(by_rank[static_cast<size_t>(j)]) - 2.0 * delta_e -
              1e-12)
          << "n=" << n << " k=" << k << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKInvariantSweep,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace crowdmax
