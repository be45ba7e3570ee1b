// Tests for the all-play-all tournament toolkit, including the
// combinatorial facts (Lemmas 1-2) that Phase 1 relies on.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/comparator.h"
#include "core/instance.h"
#include "core/tournament.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

// AllPlayAll over ids the comparator accepts.
TournamentResult Play(const std::vector<ElementId>& elements,
                      Comparator* comparator) {
  Result<TournamentResult> run = AllPlayAll(elements, comparator);
  CROWDMAX_CHECK(run.ok());
  return std::move(run).value();
}

TEST(TournamentTest, EmptyAndSingletonAreNoOps) {
  Instance instance({1.0});
  OracleComparator oracle(&instance);
  TournamentResult empty = Play({}, &oracle);
  EXPECT_TRUE(empty.wins.empty());
  EXPECT_EQ(empty.comparisons, 0);

  TournamentResult single = Play({0}, &oracle);
  ASSERT_EQ(single.wins.size(), 1u);
  EXPECT_EQ(single.wins[0], 0);
  EXPECT_EQ(single.comparisons, 0);
}

TEST(TournamentTest, ComparisonCountIsKChoose2) {
  Result<Instance> instance = UniformInstance(10, /*seed=*/1);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  const TournamentResult result = Play(instance->AllElements(), &oracle);
  EXPECT_EQ(result.comparisons, 45);
  EXPECT_EQ(oracle.num_comparisons(), 45);
}

TEST(TournamentTest, WinsSumToComparisons) {
  Result<Instance> instance = UniformInstance(13, /*seed=*/2);
  ASSERT_TRUE(instance.ok());
  ThresholdComparator noisy(&*instance, ThresholdModel{0.2, 0.1}, /*seed=*/3);
  const TournamentResult result = Play(instance->AllElements(), &noisy);
  int64_t total = 0;
  for (int64_t w : result.wins) total += w;
  EXPECT_EQ(total, result.comparisons);
  EXPECT_EQ(result.comparisons, 13 * 12 / 2);
}

TEST(TournamentTest, OracleTournamentRanksByValue) {
  Instance instance({5.0, 1.0, 3.0, 4.0, 2.0});
  OracleComparator oracle(&instance);
  const TournamentResult result = Play(instance.AllElements(), &oracle);
  EXPECT_EQ(result.wins[0], 4);
  EXPECT_EQ(result.wins[1], 0);
  EXPECT_EQ(result.wins[2], 2);
  EXPECT_EQ(result.wins[3], 3);
  EXPECT_EQ(result.wins[4], 1);
  EXPECT_EQ(IndexOfMostWins(result), 0u);
  EXPECT_EQ(IndexOfFewestWins(result), 1u);
}

TEST(TournamentTest, TiesBreakToEarliestIndex) {
  TournamentResult result;
  result.wins = {2, 3, 3, 1, 1};
  EXPECT_EQ(IndexOfMostWins(result), 1u);
  EXPECT_EQ(IndexOfFewestWins(result), 3u);
}

// Lemma 1: in an all-play-all tournament under the threshold model with
// epsilon = 0, the maximum element wins at least n - u_n comparisons.
class Lemma1Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma1Sweep, MaximumWinsAtLeastNMinusUn) {
  const uint64_t seed = GetParam();
  Result<Instance> instance = UniformInstance(60, seed);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(8);
  const int64_t u_n = instance->CountWithin(delta);

  ThresholdComparator cmp(&*instance, ThresholdModel{delta, 0.0}, seed + 1);
  const std::vector<ElementId> all = instance->AllElements();
  const TournamentResult result = Play(all, &cmp);
  const ElementId max_elem = instance->MaxElement();
  EXPECT_GE(result.wins[static_cast<size_t>(max_elem)],
            instance->size() - u_n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Sweep,
                         ::testing::Values<uint64_t>(10, 20, 30, 40, 50, 60));

// Lemma 2: at most 2r - 1 elements can win at least |A| - r comparisons,
// for ANY outcome pattern — test against adversarial and random answers.
class Lemma2Sweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(Lemma2Sweep, AtMostTwoRMinusOneBigWinners) {
  const int64_t r = GetParam();
  const int64_t n = 40;
  Result<Instance> packed = PackedInstance(n, /*seed=*/77);
  ASSERT_TRUE(packed.ok());

  // Everything is indistinguishable: answers are a pure coin.
  ThresholdComparator coin(&*packed, ThresholdModel{1.0, 0.0}, /*seed=*/78);
  const TournamentResult result = Play(packed->AllElements(), &coin);
  int64_t big_winners = 0;
  for (int64_t w : result.wins) {
    if (w >= n - r) ++big_winners;
  }
  EXPECT_LE(big_winners, 2 * r - 1);
}

INSTANTIATE_TEST_SUITE_P(Rs, Lemma2Sweep,
                         ::testing::Values<int64_t>(1, 2, 3, 5, 8, 13, 20));

}  // namespace
}  // namespace crowdmax
