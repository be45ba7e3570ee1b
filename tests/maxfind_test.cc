// Tests for the phase-2 solvers: AllPlayAllMax, 2-MaxFind (Algorithm 3) and
// the randomized max-finder (Algorithm 5), including their approximation
// guarantees (2*delta / 3*delta) and comparison bounds, on every backend.

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/execution.h"
#include "core/instance.h"
#include "core/maxfind.h"
#include "core/round_engine.h"
#include "core/tournament.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "tests/per_call_comparator.h"

namespace crowdmax {
namespace {

// The backends a Phase-2 query runs on. The executor and pipelined ones
// write a player unit's pairs out and fold the answers back into its loss
// matrix; the comparator ones answer it in one tournament call.
enum class Backend { kSerial, kThreads4, kExecutor, kDepth8 };

const auto kBackends = ::testing::Values(Backend::kSerial, Backend::kThreads4,
                                         Backend::kExecutor, Backend::kDepth8);

// A comparator's engine on one backend, with the executor stack the
// executor and pipelined backends answer through.
class BackendEngine {
 public:
  BackendEngine(Comparator* comparator, Backend backend, bool memoize)
      : executor_(comparator), async_(&executor_) {
    Execution execution = comparator;
    if (backend == Backend::kExecutor) execution = &executor_;
    if (backend == Backend::kDepth8) execution = Execution(&async_, 8);
    Result<std::unique_ptr<RoundEngine>> engine = execution.Engine(
        memoize, /*cache=*/nullptr, /*cache_class=*/0,
        /*threads=*/backend == Backend::kThreads4 ? 4 : 0, /*seed=*/17);
    CROWDMAX_CHECK(engine.ok());
    engine_ = std::move(engine).value();
  }
  // async_ and the engine point into this object.
  BackendEngine(const BackendEngine&) = delete;
  BackendEngine& operator=(const BackendEngine&) = delete;

  RoundEngine* get() { return engine_.get(); }

 private:
  ComparatorBatchExecutor executor_;
  AsyncBatchAdapter async_;
  std::unique_ptr<RoundEngine> engine_;
};

TEST(AllPlayAllMaxTest, ExactWithOracle) {
  Result<Instance> instance = UniformInstance(30, /*seed=*/1);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  Result<MaxFindResult> result =
      AllPlayAllMax(instance->AllElements(), &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, instance->MaxElement());
  EXPECT_EQ(result->paid_comparisons, 30 * 29 / 2);
}

TEST(AllPlayAllMaxTest, RejectsEmptyAndDuplicates) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  EXPECT_FALSE(AllPlayAllMax({}, &oracle).ok());
  EXPECT_FALSE(AllPlayAllMax({1, 1}, &oracle).ok());
}

TEST(AllPlayAllMaxTest, IdOutsideTheInstanceIsATypedErrorNotAnAbort) {
  // The model's batch interface refuses the pair; the oracle, which
  // answers per call, refuses the id before reading it.
  Result<Instance> instance = UniformInstance(100, 5);
  ASSERT_TRUE(instance.ok());
  ThresholdComparator model(&*instance,
                            ThresholdModel{instance->DeltaForU(5), 0.1},
                            /*seed=*/3);
  OracleComparator oracle(&*instance);
  for (Comparator* comparator : {static_cast<Comparator*>(&model),
                                 static_cast<Comparator*>(&oracle)}) {
    std::vector<ElementId> items = instance->AllElements();
    items[50] = 1000;
    const Result<MaxFindResult> result = AllPlayAllMax(items, comparator);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("1000"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(TwoMaxFindTest, SingletonShortCircuit) {
  Instance instance({3.0});
  OracleComparator oracle(&instance);
  Result<MaxFindResult> result = TwoMaxFind({0}, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, 0);
  EXPECT_EQ(result->paid_comparisons, 0);
}

class PhaseTwoOnEveryBackend : public ::testing::TestWithParam<Backend> {};

TEST_P(PhaseTwoOnEveryBackend, TournamentsOfZeroOneAndTwoPlayers) {
  // The oracle answers per call; the exact threshold model with its batch
  // interface and tournament kernel.
  Instance instance({3.0, 7.0});
  OracleComparator oracle(&instance);
  ThresholdComparator exact(&instance, ThresholdModel{0.0, 0.0}, /*seed=*/1);
  for (Comparator* comparator : {static_cast<Comparator*>(&oracle),
                                 static_cast<Comparator*>(&exact)}) {
    for (const std::vector<ElementId>& players :
         {std::vector<ElementId>{}, std::vector<ElementId>{0},
          std::vector<ElementId>{0, 1}}) {
      BackendEngine engine(comparator, GetParam(), /*memoize=*/false);
      const Result<TournamentResult> run =
          RunTournamentOnEngine(players, engine.get());
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const int64_t k = static_cast<int64_t>(players.size());
      // Player 0 wins no game, player 1 its one game.
      EXPECT_EQ(run->wins,
                std::vector<int64_t>(players.begin(), players.end()))
          << "k=" << k;
      EXPECT_EQ(run->comparisons, k * (k - 1) / 2);
      EXPECT_EQ(run->unresolved, 0);
      EXPECT_EQ(engine.get()->paid(), k * (k - 1) / 2);
    }
    // A singleton and a pair: the final tournament is the whole run.
    for (const std::vector<ElementId>& items :
         {std::vector<ElementId>{0}, std::vector<ElementId>{0, 1}}) {
      BackendEngine two_maxfind(comparator, GetParam(), /*memoize=*/true);
      const Result<MaxFindResult> found =
          RunTwoMaxFindOnEngine(items, two_maxfind.get());
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      EXPECT_EQ(found->best, items.back());
      BackendEngine randomized(comparator, GetParam(), /*memoize=*/false);
      const Result<MaxFindResult> drawn =
          RunRandomizedMaxFindOnEngine(items, randomized.get());
      ASSERT_TRUE(drawn.ok()) << drawn.status().ToString();
      EXPECT_EQ(drawn->best, items.back());
    }
  }
}

TEST_P(PhaseTwoOnEveryBackend, IdOutsideTheInstanceIsATypedErrorNotAnAbort) {
  // As FilterPhaseTest's: the model's batch interface refuses the pair,
  // and a comparator without one — the oracle, or the model answering per
  // call — refuses the id before reading it. In the sample and in a scan.
  Result<Instance> instance = UniformInstance(100, 5);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(5);
  for (const size_t at : {size_t{0}, size_t{50}}) {
    ThresholdComparator naive(&*instance, ThresholdModel{delta, 0.1},
                              /*seed=*/3);
    OracleComparator oracle(&*instance);
    ThresholdComparator model(&*instance, ThresholdModel{delta, 0.1},
                              /*seed=*/3);
    PerCallComparator per_call(&model);
    const std::pair<const char*, Comparator*> comparators[] = {
        {"batch", &naive}, {"oracle", &oracle}, {"per_call", &per_call}};
    for (const auto& [name, comparator] : comparators) {
      BackendEngine engine(comparator, GetParam(), /*memoize=*/true);
      std::vector<ElementId> items = instance->AllElements();
      items[at] = 1000;
      const Result<MaxFindResult> result =
          RunTwoMaxFindOnEngine(items, engine.get());
      const std::string context =
          std::string(name) + " at=" + std::to_string(at);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << context;
      EXPECT_NE(result.status().message().find("1000"), std::string::npos)
          << context << ": " << result.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PhaseTwoOnEveryBackend, kBackends);

TEST(TwoMaxFindTest, PairIsASingleComparison) {
  Instance instance({3.0, 7.0});
  OracleComparator oracle(&instance);
  Result<MaxFindResult> result = TwoMaxFind({0, 1}, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, 1);
  EXPECT_EQ(result->paid_comparisons, 1);
}

TEST(TwoMaxFindTest, ExactWithOracle) {
  for (int64_t n : {3, 10, 50, 200}) {
    Result<Instance> instance =
        UniformInstance(n, /*seed=*/static_cast<uint64_t>(n));
    ASSERT_TRUE(instance.ok());
    OracleComparator oracle(&*instance);
    Result<MaxFindResult> result =
        TwoMaxFind(instance->AllElements(), &oracle);
    ASSERT_TRUE(result.ok()) << "n=" << n;
    EXPECT_EQ(result->best, instance->MaxElement()) << "n=" << n;
  }
}

TEST(TwoMaxFindTest, StaysWithinTheoreticalComparisonBound) {
  for (int64_t n : {10, 40, 100, 400}) {
    Result<Instance> instance =
        UniformInstance(n, /*seed=*/static_cast<uint64_t>(7 * n));
    ASSERT_TRUE(instance.ok());
    OracleComparator oracle(&*instance);
    Result<MaxFindResult> result =
        TwoMaxFind(instance->AllElements(), &oracle);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->paid_comparisons, TwoMaxFindComparisonUpperBound(n))
        << "n=" << n;
  }
}

TEST(TwoMaxFindTest, AdversarialWorstCaseStaysWithinBound) {
  // Packed instance + "pivot always loses": the costliest regime the paper
  // simulates. The count must still respect 2*s^{3/2}.
  for (int64_t n : {25, 100, 400}) {
    Result<Instance> packed =
        PackedInstance(n, /*seed=*/static_cast<uint64_t>(n));
    ASSERT_TRUE(packed.ok());
    AdversarialComparator cmp(&*packed, /*delta=*/1.0,
                              AdversarialPolicy::kFirstLoses);
    Result<MaxFindResult> result = TwoMaxFind(packed->AllElements(), &cmp);
    ASSERT_TRUE(result.ok()) << "n=" << n;
    EXPECT_LE(result->paid_comparisons, TwoMaxFindComparisonUpperBound(n));
    // The adversary should force strictly more work than the oracle needs.
    OracleComparator oracle(&*packed);
    Result<MaxFindResult> easy = TwoMaxFind(packed->AllElements(), &oracle);
    ASSERT_TRUE(easy.ok());
    EXPECT_GT(result->paid_comparisons, easy->paid_comparisons);
  }
}

// Guarantee sweep: under T(delta, 0) the returned element is within
// 2*delta of the maximum, for every tie behaviour, on every backend.
class TwoMaxFindGuaranteeSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t, Backend>> {
};

TEST_P(TwoMaxFindGuaranteeSweep, TwoDeltaGuarantee) {
  const auto [n, seed, backend] = GetParam();
  Result<Instance> instance = UniformInstance(n, seed);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(std::max<int64_t>(2, n / 10));

  ThresholdComparator::Options fresh;
  fresh.model = ThresholdModel{delta, 0.0};
  ThresholdComparator::Options sticky = fresh;
  sticky.tie_policy = TiePolicy::kPersistentArbitrary;

  ThresholdComparator cmp_fresh(&*instance, fresh, seed + 1);
  ThresholdComparator cmp_sticky(&*instance, sticky, seed + 2);
  AdversarialComparator cmp_adv(&*instance, delta,
                                AdversarialPolicy::kLowerValueWins);

  for (Comparator* cmp : {static_cast<Comparator*>(&cmp_fresh),
                          static_cast<Comparator*>(&cmp_sticky),
                          static_cast<Comparator*>(&cmp_adv)}) {
    BackendEngine engine(cmp, backend, /*memoize=*/true);
    Result<MaxFindResult> result =
        RunTwoMaxFindOnEngine(instance->AllElements(), engine.get());
    ASSERT_TRUE(result.ok());
    const double distance =
        instance->Distance(result->best, instance->MaxElement());
    EXPECT_LE(distance, 2.0 * delta + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TwoMaxFindGuaranteeSweep,
    ::testing::Combine(::testing::Values<int64_t>(20, 60, 150),
                       ::testing::Values<uint64_t>(5, 6, 7, 8), kBackends));

TEST(TwoMaxFindTest, WithoutMemoizationStillFindsMaxWithOracle) {
  Result<Instance> instance = UniformInstance(80, /*seed=*/55);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  TwoMaxFindOptions options;
  options.memoize = false;
  Result<MaxFindResult> result =
      TwoMaxFind(instance->AllElements(), &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, instance->MaxElement());
}

TEST(TwoMaxFindTest, MemoizationReducesPaidComparisons) {
  Result<Instance> instance = UniformInstance(150, /*seed=*/66);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle_a(&*instance);
  OracleComparator oracle_b(&*instance);
  TwoMaxFindOptions no_memo;
  no_memo.memoize = false;
  Result<MaxFindResult> with = TwoMaxFind(instance->AllElements(), &oracle_a);
  Result<MaxFindResult> without =
      TwoMaxFind(instance->AllElements(), &oracle_b, no_memo);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LE(with->paid_comparisons, without->paid_comparisons);
  EXPECT_EQ(with->issued_comparisons, without->issued_comparisons);
}

TEST(RandomizedMaxFindTest, ExactWithOracle) {
  for (int64_t n : {5, 30, 120}) {
    Result<Instance> instance =
        UniformInstance(n, /*seed=*/static_cast<uint64_t>(n + 3));
    ASSERT_TRUE(instance.ok());
    OracleComparator oracle(&*instance);
    RandomizedMaxFindOptions options;
    options.seed = static_cast<uint64_t>(n);
    Result<MaxFindResult> result =
        RandomizedMaxFind(instance->AllElements(), &oracle, options);
    ASSERT_TRUE(result.ok()) << "n=" << n;
    EXPECT_EQ(result->best, instance->MaxElement()) << "n=" << n;
  }
}

class RandomizedMaxFindGuarantee : public ::testing::TestWithParam<Backend> {
};

TEST_P(RandomizedMaxFindGuarantee, ThreeDeltaGuaranteeUnderThresholdModel) {
  int within = 0;
  constexpr int kTrials = 25;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(120, /*seed=*/300 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(10);
    ThresholdComparator cmp(&*instance, ThresholdModel{delta, 0.0},
                            /*seed=*/400 + static_cast<uint64_t>(t));
    RandomizedMaxFindOptions options;
    options.seed = 500 + static_cast<uint64_t>(t);
    BackendEngine engine(&cmp, GetParam(), /*memoize=*/false);
    Result<MaxFindResult> result = RunRandomizedMaxFindOnEngine(
        instance->AllElements(), engine.get(), options);
    ASSERT_TRUE(result.ok());
    if (instance->Distance(result->best, instance->MaxElement()) <=
        3.0 * delta + 1e-12) {
      ++within;
    }
  }
  EXPECT_GE(within, kTrials - 2);  // "w.h.p." with margin for noise.
}

INSTANTIATE_TEST_SUITE_P(Backends, RandomizedMaxFindGuarantee, kBackends);

TEST(RandomizedMaxFindTest, CostExceedsTwoMaxFindAtPaperSizes) {
  // Section 4.1.2: the linear algorithm's constants dominate at the sizes
  // the paper considers, so 2-MaxFind is cheaper in practice.
  Result<Instance> instance = UniformInstance(99, /*seed=*/71);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle_a(&*instance);
  OracleComparator oracle_b(&*instance);
  Result<MaxFindResult> randomized =
      RandomizedMaxFind(instance->AllElements(), &oracle_a, {});
  Result<MaxFindResult> deterministic =
      TwoMaxFind(instance->AllElements(), &oracle_b);
  ASSERT_TRUE(randomized.ok());
  ASSERT_TRUE(deterministic.ok());
  EXPECT_GT(randomized->paid_comparisons, deterministic->paid_comparisons);
}

TEST(RandomizedMaxFindTest, GroupSizeOverrideShrinksCost) {
  Result<Instance> instance = UniformInstance(200, /*seed=*/81);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle_a(&*instance);
  OracleComparator oracle_b(&*instance);
  RandomizedMaxFindOptions small_groups;
  small_groups.group_size_override = 8;
  Result<MaxFindResult> big =
      RandomizedMaxFind(instance->AllElements(), &oracle_a, {});
  Result<MaxFindResult> small =
      RandomizedMaxFind(instance->AllElements(), &oracle_b, small_groups);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  EXPECT_LT(small->paid_comparisons, big->paid_comparisons);
}

TEST(RandomizedMaxFindTest, RejectsBadOptions) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  RandomizedMaxFindOptions bad_exponent;
  bad_exponent.sample_exponent = 1.5;
  EXPECT_FALSE(RandomizedMaxFind({0, 1}, &oracle, bad_exponent).ok());
  RandomizedMaxFindOptions bad_c;
  bad_c.c = -1;
  EXPECT_FALSE(RandomizedMaxFind({0, 1}, &oracle, bad_c).ok());
  RandomizedMaxFindOptions bad_group;
  bad_group.group_size_override = -5;
  EXPECT_FALSE(RandomizedMaxFind({0, 1}, &oracle, bad_group).ok());
}

TEST(MaxFindBoundsTest, UpperBoundHelperGrowsLikeSThreeHalves) {
  EXPECT_EQ(TwoMaxFindComparisonUpperBound(0), 0);
  EXPECT_EQ(TwoMaxFindComparisonUpperBound(1), 2);
  EXPECT_EQ(TwoMaxFindComparisonUpperBound(100), 2000);
  EXPECT_LT(TwoMaxFindComparisonUpperBound(100) * 7,
            TwoMaxFindComparisonUpperBound(400));
}

}  // namespace
}  // namespace crowdmax
