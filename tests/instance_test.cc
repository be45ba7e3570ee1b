// Tests for the Instance abstraction (values, distances, ranks, u(delta)).

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

TEST(InstanceTest, BasicAccessors) {
  Instance instance({3.0, 1.0, 2.0});
  EXPECT_EQ(instance.size(), 3);
  EXPECT_FALSE(instance.empty());
  EXPECT_DOUBLE_EQ(instance.value(0), 3.0);
  EXPECT_DOUBLE_EQ(instance.value(2), 2.0);
  EXPECT_TRUE(instance.Contains(0));
  EXPECT_TRUE(instance.Contains(2));
  EXPECT_FALSE(instance.Contains(3));
  EXPECT_FALSE(instance.Contains(-1));
}

TEST(InstanceTest, DistanceIsSymmetricAbsolute) {
  Instance instance({5.0, 2.0});
  EXPECT_DOUBLE_EQ(instance.Distance(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(instance.Distance(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(instance.Distance(0, 0), 0.0);
}

TEST(InstanceTest, RelativeDifference) {
  Instance instance({100.0, 80.0, 0.0});
  EXPECT_DOUBLE_EQ(instance.RelativeDifference(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(instance.RelativeDifference(1, 0), 0.2);
  EXPECT_DOUBLE_EQ(instance.RelativeDifference(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(instance.RelativeDifference(2, 2), 0.0);
}

TEST(InstanceTest, RelativeDifferenceWithNegativeValues) {
  // DOTS uses value = -dots; the relative difference must match the
  // relative dot-count difference.
  Instance instance({-100.0, -120.0});
  EXPECT_NEAR(instance.RelativeDifference(0, 1), 20.0 / 120.0, 1e-12);
}

TEST(InstanceTest, MaxElement) {
  Instance instance({1.0, 9.0, 4.0, 9.0});
  EXPECT_EQ(instance.MaxElement(), 1);  // Lowest id among ties.
}

TEST(InstanceTest, MaxElementSingle) {
  Instance instance({-7.0});
  EXPECT_EQ(instance.MaxElement(), 0);
}

TEST(InstanceTest, RankCountsStrictlyGreater) {
  Instance instance({1.0, 9.0, 4.0, 9.0, 2.0});
  EXPECT_EQ(instance.Rank(1), 1);
  EXPECT_EQ(instance.Rank(3), 1);  // Ties share the best rank.
  EXPECT_EQ(instance.Rank(2), 3);
  EXPECT_EQ(instance.Rank(4), 4);
  EXPECT_EQ(instance.Rank(0), 5);
}

TEST(InstanceTest, CountWithinIncludesMaximum) {
  Instance instance({10.0, 9.5, 9.0, 5.0});
  EXPECT_EQ(instance.CountWithin(0.0), 1);   // Just M.
  EXPECT_EQ(instance.CountWithin(0.5), 2);
  EXPECT_EQ(instance.CountWithin(1.0), 3);
  EXPECT_EQ(instance.CountWithin(100.0), 4);
}

TEST(InstanceTest, DeltaForURoundTripsThroughCountWithin) {
  Instance instance({10.0, 9.5, 9.0, 5.0, 4.0});
  for (int64_t u = 1; u <= instance.size(); ++u) {
    const double delta = instance.DeltaForU(u);
    EXPECT_GE(instance.CountWithin(delta), u)
        << "u=" << u << " delta=" << delta;
    if (u > 1) {
      // Strictly below delta there must be fewer than u elements.
      EXPECT_LT(instance.CountWithin(std::nexttoward(delta, 0.0)), u);
    }
  }
}

TEST(InstanceTest, CheckDistinctIdsRefusesNegativeAndRepeatedIds) {
  EXPECT_TRUE(CheckDistinctIds(std::vector<ElementId>{}).ok());
  EXPECT_TRUE(CheckDistinctIds(std::vector<ElementId>{3, 0, 2, 1}).ok());
  const Status negative = CheckDistinctIds(std::vector<ElementId>{0, -3, 1});
  EXPECT_EQ(negative.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(negative.message().find("-3"), std::string::npos);
  const Status repeated = CheckDistinctIds(std::vector<ElementId>{4, 1, 4});
  EXPECT_EQ(repeated.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(repeated.message().find("4"), std::string::npos);
}

TEST(InstanceTest, CheckDistinctIdsHandlesSparseLargeIds) {
  // Ids near 2^31 take the sorted path: no 256 MiB bitmap for a list of
  // three.
  constexpr ElementId kLarge = 2147483647;
  EXPECT_TRUE(CheckDistinctIds(std::vector<ElementId>{kLarge, 0, kLarge - 1})
                  .ok());
  const Status repeated =
      CheckDistinctIds(std::vector<ElementId>{kLarge, 7, kLarge});
  EXPECT_EQ(repeated.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(repeated.message().find(std::to_string(kLarge)),
            std::string::npos);
}

TEST(InstanceTest, AllElementsEnumeratesIds) {
  Instance instance({1.0, 2.0, 3.0});
  const std::vector<ElementId> all = instance.AllElements();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], 0);
  EXPECT_EQ(all[2], 2);
}

// Parameterized sweep: DeltaForU consistency on random instances.
class InstanceDeltaSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(InstanceDeltaSweep, DeltaForUMatchesCountOnUniformInstances) {
  const int64_t n = GetParam();
  Result<Instance> instance = UniformInstance(n, /*seed=*/1000 + n);
  ASSERT_TRUE(instance.ok());
  for (int64_t u : {int64_t{1}, n / 4 + 1, n / 2 + 1, n}) {
    const double delta = instance->DeltaForU(u);
    EXPECT_GE(instance->CountWithin(delta), u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InstanceDeltaSweep,
                         ::testing::Values<int64_t>(2, 5, 17, 64, 301));

}  // namespace
}  // namespace crowdmax
