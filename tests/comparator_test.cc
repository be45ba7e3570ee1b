// Tests for the comparator boundary: oracle, counting, adversarial
// policies.

#include <vector>

#include <gtest/gtest.h>

#include "core/comparator.h"
#include "core/instance.h"

namespace crowdmax {
namespace {

TEST(OracleComparatorTest, ReturnsTrueWinner) {
  Instance instance({1.0, 5.0, 3.0});
  OracleComparator oracle(&instance);
  EXPECT_EQ(oracle.Compare(0, 1), 1);
  EXPECT_EQ(oracle.Compare(1, 0), 1);
  EXPECT_EQ(oracle.Compare(0, 2), 2);
}

TEST(OracleComparatorTest, TiesGoToLowerId) {
  Instance instance({4.0, 4.0});
  OracleComparator oracle(&instance);
  EXPECT_EQ(oracle.Compare(0, 1), 0);
  EXPECT_EQ(oracle.Compare(1, 0), 0);
}

TEST(OracleComparatorTest, CountsComparisons) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  EXPECT_EQ(oracle.num_comparisons(), 0);
  oracle.Compare(0, 1);
  oracle.Compare(0, 1);
  EXPECT_EQ(oracle.num_comparisons(), 2);
  oracle.ResetCount();
  EXPECT_EQ(oracle.num_comparisons(), 0);
}

TEST(AdversarialComparatorTest, TruthfulAboveThreshold) {
  Instance instance({0.0, 10.0});
  AdversarialComparator cmp(&instance, /*delta=*/1.0,
                            AdversarialPolicy::kFirstLoses);
  EXPECT_EQ(cmp.Compare(0, 1), 1);
  EXPECT_EQ(cmp.Compare(1, 0), 1);
}

TEST(AdversarialComparatorTest, FirstLosesBelowThreshold) {
  Instance instance({0.0, 0.5});
  AdversarialComparator cmp(&instance, /*delta=*/1.0,
                            AdversarialPolicy::kFirstLoses);
  EXPECT_EQ(cmp.Compare(0, 1), 1);
  EXPECT_EQ(cmp.Compare(1, 0), 0);  // Order-dependent by design.
}

TEST(AdversarialComparatorTest, LowerValueWinsBelowThreshold) {
  Instance instance({0.0, 0.5});
  AdversarialComparator cmp(&instance, /*delta=*/1.0,
                            AdversarialPolicy::kLowerValueWins);
  EXPECT_EQ(cmp.Compare(0, 1), 0);
  EXPECT_EQ(cmp.Compare(1, 0), 0);
}

TEST(AdversarialComparatorTest, HigherValueWinsIsTruthfulEverywhere) {
  Instance instance({0.0, 0.5, 10.0});
  AdversarialComparator cmp(&instance, /*delta=*/1.0,
                            AdversarialPolicy::kHigherValueWins);
  EXPECT_EQ(cmp.Compare(0, 1), 1);
  EXPECT_EQ(cmp.Compare(0, 2), 2);
}

TEST(AdversarialComparatorTest, ExactTiesResolveDeterministically) {
  Instance instance({1.0, 1.0});
  AdversarialComparator lower(&instance, 0.5,
                              AdversarialPolicy::kLowerValueWins);
  AdversarialComparator higher(&instance, 0.5,
                               AdversarialPolicy::kHigherValueWins);
  EXPECT_EQ(lower.Compare(0, 1), 1);   // Max id on ties.
  EXPECT_EQ(higher.Compare(0, 1), 0);  // Min id on ties.
}

TEST(AdversarialComparatorTest, BoundaryDistanceCountsAsIndistinguishable) {
  // d(a, b) == delta is "at or below" the threshold in the paper's model.
  Instance instance({0.0, 1.0});
  AdversarialComparator cmp(&instance, /*delta=*/1.0,
                            AdversarialPolicy::kLowerValueWins);
  EXPECT_EQ(cmp.Compare(0, 1), 0);
}

}  // namespace
}  // namespace crowdmax
