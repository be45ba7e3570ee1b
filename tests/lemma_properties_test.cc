// Property tests for the paper's Phase-1 guarantees (Lemmas 1-3), checked
// over randomized instances — a sweep of n, u_n, and value-gap shapes —
// against every adversarial tie policy and against threshold workers, on
// the serial path, the parallel path, the executor backend and the
// pipelined backend (depth {1, 8}, group-granular rounds), and
// with both Appendix-A optimizations enabled, memoization alone, and
// group-granular rounds on the serial and parallel paths:
//
//  * Lemma 2 (via Lemma 1): the true maximum survives filtering — below
//    the threshold the answer is completely arbitrary, so this must hold
//    even when an adversary resolves every hard comparison.
//  * Lemma 3 size bound: at most 2*u_n - 1 candidates survive (when the
//    input had at least 2*u_n elements to begin with).
//  * Lemma 3 cost bound: at most 4*n*u_n naive comparisons are issued.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

enum class Backend { kComparator, kExecutor, kPipelined };

struct Variant {
  const char* name;
  bool memoize;
  bool global_loss_counter;
  int64_t threads;
  Backend backend = Backend::kComparator;
  int64_t depth = 0;  // Pipelined rounds in flight.
  bool pipeline_groups = false;  // One engine round per group.
};

constexpr Variant kVariants[] = {
    {"serial", false, false, 0},
    {"serial+opts", true, true, 0},
    {"parallel", false, false, 2},
    {"parallel+opts", true, true, 2},
    {"serial+memo", true, false, 0},
    {"parallel+memo", true, false, 2},
    {"serial+groups+opts", true, true, 0, Backend::kComparator, 0, true},
    {"parallel+groups+opts", true, true, 2, Backend::kComparator, 0, true},
    {"executor+opts", true, true, 0, Backend::kExecutor},
    {"pipelined1+opts", true, true, 0, Backend::kPipelined, 1},
    {"pipelined8+opts", true, true, 0, Backend::kPipelined, 8},
};

// Runs Algorithm 2 on the variant's backend: the comparator engines
// directly, the executor ones over a ComparatorBatchExecutor, which
// answers every pair (no partial results).
Result<FilterResult> RunVariant(const Variant& variant,
                                const std::vector<ElementId>& items,
                                FilterOptions options, Comparator* naive) {
  if (variant.backend == Backend::kComparator) {
    options.pipeline_groups = variant.pipeline_groups;
    return FilterCandidates(items, options, naive);
  }
  ComparatorBatchExecutor executor(naive);
  Result<FilterResult> batched = Status::Internal("unreachable");
  if (variant.backend == Backend::kExecutor) {
    batched = FilterCandidates(items, options, &executor);
  } else {
    AsyncBatchAdapter async(&executor);
    options.pipeline_groups = true;
    batched =
        FilterCandidates(items, options, Execution(&async, variant.depth));
  }
  if (!batched.ok()) return batched.status();
  CROWDMAX_CHECK(!batched->partial);
  return batched;
}

bool Contains(const std::vector<ElementId>& set, ElementId e) {
  return std::find(set.begin(), set.end(), e) != set.end();
}

void CheckLemmaGuarantees(const Instance& instance, Comparator* naive,
                          const Variant& variant, const FilterOptions& options,
                          const std::string& context) {
  const int64_t n = instance.size();
  Result<FilterResult> result =
      RunVariant(variant, instance.AllElements(), options, naive);
  ASSERT_TRUE(result.ok()) << context;

  // Lemma 2: the maximum always survives (a correct u_n never produces an
  // empty round, so no degraded-mode escape hatch fires).
  EXPECT_FALSE(result->hit_empty_round) << context;
  EXPECT_TRUE(Contains(result->candidates, instance.MaxElement())) << context;

  // Lemma 3 size bound, applicable once the loop had anything to do.
  if (n >= 2 * options.u_n) {
    EXPECT_LE(static_cast<int64_t>(result->candidates.size()),
              2 * options.u_n - 1)
        << context;
  }

  // Lemma 3 cost bound on naive comparisons.
  EXPECT_LE(result->paid_comparisons,
            FilterComparisonUpperBound(n, options.u_n))
      << context;
  EXPECT_LE(result->paid_comparisons, result->issued_comparisons) << context;
}

TEST(LemmaPropertiesTest, GuaranteesHoldUnderEveryAdversary) {
  // The adversary decides every comparison of an indistinguishable pair;
  // Lemmas 1-3 promise the guarantees regardless of those decisions.
  constexpr AdversarialPolicy kPolicies[] = {
      AdversarialPolicy::kFirstLoses, AdversarialPolicy::kLowerValueWins,
      AdversarialPolicy::kHigherValueWins};
  for (int64_t n : {40, 120, 400}) {
    for (int64_t u_target : {2, 5, 11}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        Result<Instance> instance = UniformInstance(n, seed);
        ASSERT_TRUE(instance.ok());
        const double delta = instance->DeltaForU(u_target);
        const int64_t u_n = instance->CountWithin(delta);
        for (AdversarialPolicy policy : kPolicies) {
          for (const Variant& variant : kVariants) {
            AdversarialComparator adversary(&*instance, delta, policy);
            FilterOptions options;
            options.u_n = u_n;
            options.memoize = variant.memoize;
            options.global_loss_counter = variant.global_loss_counter;
            options.threads = variant.threads;
            CheckLemmaGuarantees(
                *instance, &adversary, variant, options,
                std::string(variant.name) + " n=" + std::to_string(n) +
                    " u_n=" + std::to_string(u_n) +
                    " policy=" + std::to_string(static_cast<int>(policy)) +
                    " seed=" + std::to_string(seed));
          }
        }
      }
    }
  }
}

TEST(LemmaPropertiesTest, GuaranteesHoldUnderThresholdWorkers) {
  // epsilon = 0 is the T(delta, 0) model of Lemma 3: hard pairs are coin
  // flips, everything else is answered truthfully.
  for (int64_t n : {60, 250}) {
    for (int64_t u_target : {3, 8}) {
      for (uint64_t seed : {10u, 20u, 30u, 40u}) {
        Result<Instance> instance = UniformInstance(n, seed);
        ASSERT_TRUE(instance.ok());
        const double delta = instance->DeltaForU(u_target);
        const int64_t u_n = instance->CountWithin(delta);
        for (const Variant& variant : kVariants) {
          ThresholdComparator naive(&*instance, ThresholdModel{delta, 0.0},
                                    seed * 1000 + static_cast<uint64_t>(n));
          FilterOptions options;
          options.u_n = u_n;
          options.memoize = variant.memoize;
          options.global_loss_counter = variant.global_loss_counter;
          options.threads = variant.threads;
          CheckLemmaGuarantees(
              *instance, &naive, variant, options,
              std::string(variant.name) + " n=" + std::to_string(n) +
                  " u_n=" + std::to_string(u_n) +
                  " seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(LemmaPropertiesTest, GuaranteesHoldOnPackedValueGaps) {
  // Packed instances put every element within the threshold of the maximum
  // (u_n = n stresses the no-gap extreme); clustered gaps via DeltaForU on
  // near-tied uniform draws cover the middle. With u_n = n the filter must
  // keep everything and the loop must terminate immediately.
  for (int64_t n : {16, 48}) {
    Result<Instance> packed = PackedInstance(n, 99);
    ASSERT_TRUE(packed.ok());
    const double delta = 1.0;
    const int64_t u_n = packed->CountWithin(delta);
    ASSERT_EQ(u_n, n);
    for (const Variant& variant : kVariants) {
      AdversarialComparator adversary(&*packed, delta,
                                      AdversarialPolicy::kFirstLoses);
      FilterOptions options;
      options.u_n = u_n;
      options.memoize = variant.memoize;
      options.global_loss_counter = variant.global_loss_counter;
      options.threads = variant.threads;
      CheckLemmaGuarantees(*packed, &adversary, variant, options,
                           std::string("packed ") + variant.name +
                               " n=" + std::to_string(n));
    }
  }
}

TEST(LemmaPropertiesTest, SerialAndParallelBothRespectBudgetStop) {
  // The budget escape hatch preserves "M survives" (stopping early only
  // keeps more elements) on both engines.
  Result<Instance> instance = UniformInstance(200, 77);
  ASSERT_TRUE(instance.ok());
  const double delta = instance->DeltaForU(6);
  const int64_t u_n = instance->CountWithin(delta);
  for (int64_t threads : {0, 2}) {
    AdversarialComparator adversary(&*instance, delta,
                                    AdversarialPolicy::kLowerValueWins);
    FilterOptions options;
    options.u_n = u_n;
    options.threads = threads;
    options.max_comparisons = 4 * 200 * u_n / 8;  // Far below the full cost.
    Result<FilterResult> result =
        FilterCandidates(instance->AllElements(), options, &adversary);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->paid_comparisons, options.max_comparisons);
    EXPECT_TRUE(std::find(result->candidates.begin(),
                          result->candidates.end(),
                          instance->MaxElement()) != result->candidates.end())
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace crowdmax
