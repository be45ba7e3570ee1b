// Tests for the model-backed worker comparators: the threshold model, the
// probabilistic (DOTS) model and the persistent-bias (CARS) model —
// including the paper's key qualitative claim that majority voting helps in
// the former regime and plateaus in the latter.

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/loss_matrix.h"
#include "core/pair_key.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

// Majority vote of `k` fresh queries on (a, b); returns the winner.
ElementId MajorityOf(Comparator* cmp, ElementId a, ElementId b, int k) {
  int wins_a = 0;
  for (int i = 0; i < k; ++i) {
    if (cmp->Compare(a, b) == a) ++wins_a;
  }
  return 2 * wins_a > k ? a : b;
}

// Fraction of `trials` majority-of-k votes that pick `expected`.
double MajorityAccuracy(Comparator* cmp, ElementId a, ElementId b,
                        ElementId expected, int k, int trials) {
  int correct = 0;
  for (int t = 0; t < trials; ++t) {
    if (MajorityOf(cmp, a, b, k) == expected) ++correct;
  }
  return static_cast<double>(correct) / trials;
}

// ------------------------------------------------------ ThresholdModel.

TEST(ThresholdModelTest, Validity) {
  EXPECT_TRUE((ThresholdModel{0.0, 0.0}).Valid());
  EXPECT_TRUE((ThresholdModel{1.0, 0.49}).Valid());
  EXPECT_FALSE((ThresholdModel{-1.0, 0.0}).Valid());
  EXPECT_FALSE((ThresholdModel{1.0, 1.0}).Valid());
  EXPECT_FALSE((ThresholdModel{1.0, -0.1}).Valid());
}

TEST(ThresholdComparatorTest, ExactAboveThresholdWithZeroEpsilon) {
  Instance instance({0.0, 2.0});
  ThresholdComparator cmp(&instance, ThresholdModel{1.0, 0.0}, /*seed=*/1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(cmp.Compare(0, 1), 1);
    EXPECT_EQ(cmp.Compare(1, 0), 1);
  }
}

TEST(ThresholdComparatorTest, EpsilonErrorRateAboveThreshold) {
  Instance instance({0.0, 2.0});
  ThresholdComparator cmp(&instance, ThresholdModel{1.0, 0.2}, /*seed=*/2);
  int errors = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (cmp.Compare(0, 1) == 0) ++errors;
  }
  EXPECT_NEAR(static_cast<double>(errors) / kTrials, 0.2, 0.02);
}

TEST(ThresholdComparatorTest, FreshCoinBelowThresholdIsFair) {
  Instance instance({0.0, 0.5});
  ThresholdComparator cmp(&instance, ThresholdModel{1.0, 0.0}, /*seed=*/3);
  int wins_high = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (cmp.Compare(0, 1) == 1) ++wins_high;
  }
  EXPECT_NEAR(static_cast<double>(wins_high) / kTrials, 0.5, 0.02);
}

TEST(ThresholdComparatorTest, BiasedCoinBelowThreshold) {
  Instance instance({0.0, 0.5});
  ThresholdComparator::Options options;
  options.model = ThresholdModel{1.0, 0.0};
  options.tie_policy = TiePolicy::kFreshCoin;
  options.below_threshold_correct_prob = 0.8;
  ThresholdComparator cmp(&instance, options, /*seed=*/4);
  int correct = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (cmp.Compare(0, 1) == 1) ++correct;  // 1 is the true winner.
  }
  EXPECT_NEAR(static_cast<double>(correct) / kTrials, 0.8, 0.02);
}

TEST(ThresholdComparatorTest, PersistentArbitraryIsConsistentPerPair) {
  Instance instance({0.0, 0.1, 0.2, 0.3});
  ThresholdComparator::Options options;
  options.model = ThresholdModel{1.0, 0.0};
  options.tie_policy = TiePolicy::kPersistentArbitrary;
  ThresholdComparator cmp(&instance, options, /*seed=*/5);
  for (ElementId a = 0; a < 4; ++a) {
    for (ElementId b = a + 1; b < 4; ++b) {
      const ElementId first = cmp.Compare(a, b);
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(cmp.Compare(a, b), first);
        EXPECT_EQ(cmp.Compare(b, a), first);
      }
    }
  }
}

TEST(ThresholdComparatorTest, PersistentArbitraryIsArbitraryAcrossPairs) {
  // With many indistinguishable pairs, some persistent answers must be
  // wrong (probability 2^-20 otherwise).
  std::vector<double> values;
  for (int i = 0; i <= 20; ++i) values.push_back(static_cast<double>(i) * 0.01);
  Instance packed(values);
  ThresholdComparator::Options options;
  options.model = ThresholdModel{1.0, 0.0};
  options.tie_policy = TiePolicy::kPersistentArbitrary;
  ThresholdComparator cmp(&packed, options, /*seed=*/6);
  int wrong = 0;
  for (ElementId a = 0; a < 20; ++a) {
    if (cmp.Compare(a, 20) == a) ++wrong;  // 20 holds the max value.
  }
  EXPECT_GT(wrong, 0);
}

TEST(ThresholdComparatorTest, ZeroDeltaIsProbabilisticModel) {
  // delta == 0: every distinct pair is above threshold.
  Instance instance({0.0, 1e-9});
  ThresholdComparator cmp(&instance, ThresholdModel{0.0, 0.0}, /*seed=*/7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(cmp.Compare(0, 1), 1);
}

TEST(ThresholdComparatorTest, MajorityVotingCannotBeatTheThreshold) {
  // The paper's central point: for indistinguishable pairs under a fair
  // coin, majority accuracy stays ~0.5 regardless of the number of votes.
  Instance instance({0.0, 0.5});
  ThresholdComparator cmp(&instance, ThresholdModel{1.0, 0.0}, /*seed=*/8);
  const double acc21 = MajorityAccuracy(&cmp, 0, 1, /*expected=*/1,
                                        /*k=*/21, /*trials=*/2000);
  EXPECT_NEAR(acc21, 0.5, 0.05);
}

// ------------------------------------------------ RelativeErrorComparator.

TEST(RelativeErrorComparatorTest, ErrorDecaysWithDifference) {
  Instance instance({100.0, 95.0, 50.0});
  RelativeErrorComparator::Options options;  // Defaults: 0.5 * e^{-4.5 r}.
  RelativeErrorComparator cmp(&instance, options, /*seed=*/9);

  constexpr int kTrials = 20000;
  int errors_close = 0;
  int errors_far = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (cmp.Compare(0, 1) == 1) ++errors_close;  // rel diff 0.05.
    if (cmp.Compare(0, 2) == 2) ++errors_far;    // rel diff 0.5.
  }
  const double p_close = static_cast<double>(errors_close) / kTrials;
  const double p_far = static_cast<double>(errors_far) / kTrials;
  EXPECT_NEAR(p_close, 0.5 * std::exp(-4.5 * 0.05), 0.02);
  EXPECT_NEAR(p_far, 0.5 * std::exp(-4.5 * 0.5), 0.01);
  EXPECT_LT(p_far, p_close);
}

TEST(RelativeErrorComparatorTest, MajorityVotingConvergesToTruth) {
  // The DOTS regime (Figure 2(a)): more workers, higher accuracy.
  Instance instance({100.0, 93.0});  // rel diff 0.07, hard but not a coin.
  RelativeErrorComparator::Options options;
  RelativeErrorComparator cmp(&instance, options, /*seed=*/10);
  const double acc1 = MajorityAccuracy(&cmp, 0, 1, 0, /*k=*/1, 2000);
  const double acc21 = MajorityAccuracy(&cmp, 0, 1, 0, /*k=*/21, 2000);
  EXPECT_GT(acc21, acc1 + 0.15);
  EXPECT_GT(acc21, 0.85);
}

TEST(RelativeErrorComparatorTest, EqualValuesAreACoin) {
  Instance instance({1.0, 1.0});
  RelativeErrorComparator::Options options;
  RelativeErrorComparator cmp(&instance, options, /*seed=*/11);
  int wins0 = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    if (cmp.Compare(0, 1) == 0) ++wins0;
  }
  EXPECT_NEAR(static_cast<double>(wins0) / kTrials, 0.5, 0.03);
}

// ---------------------------------------------- PersistentBiasComparator.

PersistentBiasComparator::Options CarsLikeOptions() {
  PersistentBiasComparator::Options options;
  options.buckets = {{0.10, 0.60}, {0.20, 0.70}};
  options.individual_noise = 0.28;
  options.above_threshold_error = 0.15;
  return options;
}

TEST(PersistentBiasComparatorTest, EasyPairsConvergeWithMajority) {
  Instance instance({100.0, 50.0});  // rel diff 0.5 — above all buckets.
  PersistentBiasComparator cmp(&instance, CarsLikeOptions(), /*seed=*/12);
  const double acc = MajorityAccuracy(&cmp, 0, 1, 0, /*k=*/15, 1000);
  EXPECT_GT(acc, 0.95);
}

TEST(PersistentBiasComparatorTest, HardPairsPlateauAtPreferenceAccuracy) {
  // The CARS regime (Figure 2(b)): averaged over many instances, majority
  // accuracy converges to the bucket's preferred_correct_prob (0.6 here),
  // no matter how many workers vote.
  int correct = 0;
  constexpr int kInstances = 1500;
  for (int t = 0; t < kInstances; ++t) {
    Instance instance({100.0, 95.0});  // rel diff 0.05 — first bucket.
    PersistentBiasComparator cmp(&instance, CarsLikeOptions(),
                                 /*seed=*/5000 + static_cast<uint64_t>(t));
    if (MajorityOf(&cmp, 0, 1, /*k=*/21) == 0) ++correct;
  }
  const double acc = static_cast<double>(correct) / kInstances;
  EXPECT_NEAR(acc, 0.60, 0.05);
}

TEST(PersistentBiasComparatorTest, SecondBucketPlateausHigher) {
  int correct = 0;
  constexpr int kInstances = 1500;
  for (int t = 0; t < kInstances; ++t) {
    Instance instance({100.0, 85.0});  // rel diff 0.15 — second bucket.
    PersistentBiasComparator cmp(&instance, CarsLikeOptions(),
                                 /*seed=*/9000 + static_cast<uint64_t>(t));
    if (MajorityOf(&cmp, 0, 1, /*k=*/21) == 0) ++correct;
  }
  const double acc = static_cast<double>(correct) / kInstances;
  EXPECT_NEAR(acc, 0.70, 0.05);
}

TEST(PersistentBiasComparatorTest, PreferenceIsStableWithinOneInstance) {
  Instance instance({100.0, 95.0});
  PersistentBiasComparator cmp(&instance, CarsLikeOptions(), /*seed=*/13);
  // With 28% individual noise, the majority of very many votes reveals the
  // persistent preference; two independent majorities must agree.
  const ElementId m1 = MajorityOf(&cmp, 0, 1, 201);
  const ElementId m2 = MajorityOf(&cmp, 0, 1, 201);
  EXPECT_EQ(m1, m2);
}

// The little-endian bytes CheckpointWriter gives one I64 field.
std::string FieldBytes(int64_t v) {
  CheckpointWriter writer;
  writer.WriteI64(v);
  return writer.bytes().substr(8);  // After the magic/version header.
}

TEST(PersistentBiasComparatorTest, LoadStateRefusesADamagedPreferenceTyped) {
  Instance instance({100.0, 95.0});  // One hard pair.
  PersistentBiasComparator cmp(&instance, CarsLikeOptions(), /*seed=*/13);
  cmp.Compare(0, 1);  // Draws the pair's persistent preference.
  CheckpointWriter writer;
  ASSERT_TRUE(cmp.SaveState(&writer).ok());
  std::string bytes = writer.Take();
  // The preferred-winner table closes the state, so its one entry's value
  // is the last field. Store 7: not an id of {0, 1}.
  const std::string last = bytes.substr(bytes.size() - 8);
  ASSERT_TRUE(last == FieldBytes(0) || last == FieldBytes(1));
  bytes.replace(bytes.size() - 8, 8, FieldBytes(7));

  PersistentBiasComparator restored(&instance, CarsLikeOptions(), 13);
  Result<CheckpointReader> reader = CheckpointReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  const Status status = restored.LoadState(&*reader);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("pair-cache entry"), std::string::npos);
}

// ---------------------------------------------- DistanceDecayComparator.

TEST(DistanceDecayComparatorTest, BelowThresholdIsACoin) {
  Instance instance({0.0, 0.5});
  DistanceDecayComparator::Options options;
  options.delta = 1.0;
  DistanceDecayComparator cmp(&instance, options, /*seed=*/41);
  int wins_high = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (cmp.Compare(0, 1) == 1) ++wins_high;
  }
  EXPECT_NEAR(static_cast<double>(wins_high) / kTrials, 0.5, 0.02);
}

TEST(DistanceDecayComparatorTest, ErrorDecaysAboveThreshold) {
  // Distances 1.2 and 3.0 with delta = 1: errors eps*e^{-5*0.2} vs
  // eps*e^{-5*2} — the far pair is essentially always right.
  Instance instance({0.0, 1.2, 3.0});
  DistanceDecayComparator::Options options;
  options.delta = 1.0;
  options.epsilon_at_threshold = 0.3;
  options.decay = 5.0;
  DistanceDecayComparator cmp(&instance, options, /*seed=*/42);

  int errors_near = 0;
  int errors_far = 0;
  constexpr int kTrials = 30000;
  for (int i = 0; i < kTrials; ++i) {
    if (cmp.Compare(0, 1) == 0) ++errors_near;
    if (cmp.Compare(0, 2) == 0) ++errors_far;
  }
  const double p_near = static_cast<double>(errors_near) / kTrials;
  const double p_far = static_cast<double>(errors_far) / kTrials;
  EXPECT_NEAR(p_near, 0.3 * std::exp(-5.0 * 0.2), 0.01);
  EXPECT_LT(p_far, 0.002);
}

TEST(DistanceDecayComparatorTest, ZeroDecayIsPlainThresholdModel) {
  Instance instance({0.0, 2.0});
  DistanceDecayComparator::Options options;
  options.delta = 1.0;
  options.epsilon_at_threshold = 0.2;
  options.decay = 0.0;
  DistanceDecayComparator cmp(&instance, options, /*seed=*/43);
  int errors = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (cmp.Compare(0, 1) == 0) ++errors;
  }
  EXPECT_NEAR(static_cast<double>(errors) / kTrials, 0.2, 0.02);
}

TEST(DistanceDecayComparatorTest, FilterGuaranteeSurvivesMildDecayNoise) {
  // Algorithm 2's guarantee is probabilistic once epsilon > 0; with fast
  // decay the effective above-threshold error is tiny and the maximum
  // should survive essentially always.
  int survived = 0;
  constexpr int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(400, /*seed=*/600 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(8);
    DistanceDecayComparator::Options options;
    options.delta = delta;
    options.epsilon_at_threshold = 0.25;
    options.decay = 30.0 / delta;  // Error halves every ~0.023*delta.
    DistanceDecayComparator cmp(&*instance, options,
                                /*seed=*/700 + static_cast<uint64_t>(t));
    FilterOptions filter;
    filter.u_n = instance->CountWithin(delta);
    Result<FilterResult> result =
        FilterCandidates(instance->AllElements(), filter, &cmp);
    ASSERT_TRUE(result.ok());
    for (ElementId e : result->candidates) {
      if (e == instance->MaxElement()) {
        ++survived;
        break;
      }
    }
  }
  EXPECT_GE(survived, kTrials - 2);
}

// ----------------------------------------------- Batch vote equivalence.
//
// The batch path (VoteBatchComparator::GenerateVotes, DESIGN.md §14) must
// be bit-identical to the per-call path: same outcomes, same comparison
// counter, and the same serialized state — which covers the RNG stream
// position and the sticky per-pair tables byte for byte.

std::string StateBytes(const Comparator& cmp) {
  CheckpointWriter writer;
  const Status status = cmp.SaveState(&writer);
  EXPECT_TRUE(status.ok()) << status.message();
  return writer.Take();
}

// A deterministic mix of easy, hard and repeated pairs in both argument
// orders, so the batch exercises every regime and the sticky tables.
std::vector<ComparisonPair> MixedPairs(const Instance& instance,
                                       uint64_t seed, size_t count) {
  Rng rng(seed);
  const uint64_t n = static_cast<uint64_t>(instance.size());
  std::vector<ComparisonPair> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ElementId a = static_cast<ElementId>(rng.NextBounded(n));
    ElementId b = static_cast<ElementId>(rng.NextBounded(n));
    if (a == b) b = static_cast<ElementId>((a + 1) % instance.size());
    if (i % 5 == 0 && !pairs.empty()) {
      // Revisit an earlier pair, swapped: sticky answers must be stable
      // under argument order inside one batch.
      const ComparisonPair& back = pairs[rng.NextBounded(pairs.size())];
      pairs.emplace_back(back.second, back.first);
    } else {
      pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

// Two identically seeded copies of every model, one driven per-call and
// one through GenerateVotes.
struct ModelDuo {
  std::unique_ptr<Comparator> percall;
  std::unique_ptr<Comparator> batch;
  std::string name;
};

std::vector<ModelDuo> MakeModelDuos(const Instance& instance, uint64_t seed) {
  std::vector<ModelDuo> duos;
  auto add = [&duos](auto make, const char* name) {
    duos.push_back({make(), make(), name});
  };
  ThresholdComparator::Options sticky;
  sticky.model = ThresholdModel{0.3, 0.2};
  sticky.tie_policy = TiePolicy::kPersistentArbitrary;
  add([&] { return std::make_unique<ThresholdComparator>(&instance, sticky,
                                                         seed); },
      "threshold/persistent");
  ThresholdComparator::Options coin;
  coin.model = ThresholdModel{0.3, 0.0};  // epsilon == 0: gated draws.
  coin.below_threshold_correct_prob = 0.8;
  add([&] { return std::make_unique<ThresholdComparator>(&instance, coin,
                                                         seed + 1); },
      "threshold/coin");
  add([&] { return std::make_unique<RelativeErrorComparator>(
          &instance, RelativeErrorComparator::Options{}, seed + 2); },
      "relative_error");
  DistanceDecayComparator::Options decay;
  decay.delta = 0.3;
  decay.epsilon_at_threshold = 0.25;
  decay.decay = 3.0;
  add([&] { return std::make_unique<DistanceDecayComparator>(&instance, decay,
                                                             seed + 3); },
      "distance_decay");
  add([&] { return std::make_unique<PersistentBiasComparator>(
          &instance, CarsLikeOptions(), seed + 4); },
      "persistent_bias");
  return duos;
}

void ExpectBatchMatchesPerCall(const ModelDuo& duo,
                               std::span<const ComparisonPair> pairs) {
  std::vector<ElementId> expected;
  expected.reserve(pairs.size());
  for (const ComparisonPair& p : pairs) {
    expected.push_back(duo.percall->Compare(p.first, p.second));
  }
  VoteBatchComparator* vb = duo.batch->AsVoteBatch();
  ASSERT_NE(vb, nullptr) << duo.name;
  std::vector<ElementId> got(pairs.size());
  ASSERT_EQ(vb->GenerateVotes(pairs, got),
            static_cast<int64_t>(pairs.size()))
      << duo.name;
  EXPECT_EQ(got, expected) << duo.name;
  EXPECT_EQ(duo.batch->num_comparisons(), duo.percall->num_comparisons())
      << duo.name;
  EXPECT_EQ(StateBytes(*duo.batch), StateBytes(*duo.percall)) << duo.name;
}

TEST(VoteBatchEquivalenceTest, BatchMatchesPerCallBitIdentically) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    Rng value_rng(seed);
    std::vector<double> values;
    for (int i = 0; i < 24; ++i) values.push_back(value_rng.NextDouble());
    Instance instance(values);
    for (ModelDuo& duo : MakeModelDuos(instance, 100 + seed)) {
      const std::vector<ComparisonPair> pairs =
          MixedPairs(instance, seed, 400);
      ExpectBatchMatchesPerCall(duo, pairs);
      // Continuity: per-call comparisons after the batch stay in lockstep,
      // so the batch left the RNG exactly where per-call execution did.
      for (size_t i = 0; i < 32; ++i) {
        const ComparisonPair& p = pairs[i * 7 % pairs.size()];
        EXPECT_EQ(duo.batch->Compare(p.first, p.second),
                  duo.percall->Compare(p.first, p.second))
            << duo.name;
      }
      EXPECT_EQ(StateBytes(*duo.batch), StateBytes(*duo.percall)) << duo.name;
    }
  }
}

TEST(VoteBatchEquivalenceTest, CheckpointRoundTripBetweenBatches) {
  Rng value_rng(31);
  std::vector<double> values;
  for (int i = 0; i < 16; ++i) values.push_back(value_rng.NextDouble());
  Instance instance(values);
  for (ModelDuo& duo : MakeModelDuos(instance, 300)) {
    const std::vector<ComparisonPair> warmup = MixedPairs(instance, 32, 150);
    const std::vector<ComparisonPair> after = MixedPairs(instance, 33, 150);
    VoteBatchComparator* vb = duo.batch->AsVoteBatch();
    std::vector<ElementId> out(warmup.size());
    ASSERT_EQ(vb->GenerateVotes(warmup, out),
              static_cast<int64_t>(warmup.size()));

    // Restore the checkpoint into the identically-constructed twin and run
    // the next batch on both: same votes, same final state.
    Result<CheckpointReader> reader = CheckpointReader::Open(
        StateBytes(*duo.batch));
    ASSERT_TRUE(reader.ok()) << duo.name;
    ASSERT_TRUE(duo.percall->LoadState(&*reader).ok()) << duo.name;

    std::vector<ElementId> got(after.size());
    ASSERT_EQ(vb->GenerateVotes(after, got),
              static_cast<int64_t>(after.size()));
    std::vector<ElementId> twin(after.size());
    ASSERT_EQ(duo.percall->AsVoteBatch()->GenerateVotes(after, twin),
              static_cast<int64_t>(after.size()));
    EXPECT_EQ(got, twin) << duo.name;
    EXPECT_EQ(StateBytes(*duo.batch), StateBytes(*duo.percall)) << duo.name;
  }
}

// ---------------------------------------------- Tournament equivalence.
//
// VoteBatchComparator::GenerateTournament (DESIGN.md §14) must equal one
// GenerateVotes call over the group's unskipped pairs written out in
// row-major order: the same matrix as the fold of those votes, the same
// count, counter and serialized state, and no bit set outside the
// answered pairs. `percall` plays the written-out side, `batch` the
// tournament side.

// Every model, plus the threshold model under both tie policies with
// epsilon in {0, 0.1} and, under the fresh coin, below-threshold coins of
// 0, 0.5 and 1: the draw-free class edges of the threshold kernel. (The
// persistent policy draws its own fair coin, so it takes one.)
std::vector<ModelDuo> TournamentDuos(const Instance& instance, uint64_t seed) {
  std::vector<ModelDuo> duos = MakeModelDuos(instance, seed);
  for (const TiePolicy policy :
       {TiePolicy::kFreshCoin, TiePolicy::kPersistentArbitrary}) {
    for (const double epsilon : {0.0, 0.1}) {
      for (const double coin : {0.0, 0.5, 1.0}) {
        if (policy == TiePolicy::kPersistentArbitrary && coin != 0.5) continue;
        ThresholdComparator::Options options;
        options.model = ThresholdModel{0.3, epsilon};
        options.tie_policy = policy;
        options.below_threshold_correct_prob = coin;
        const auto make = [&] {
          return std::make_unique<ThresholdComparator>(&instance, options,
                                                       seed + 10);
        };
        duos.push_back(
            {make(), make(),
             std::string("threshold/") +
                 (policy == TiePolicy::kFreshCoin ? "fresh" : "persistent") +
                 " eps=" + std::to_string(epsilon) +
                 " coin=" + std::to_string(coin)});
      }
    }
  }
  return duos;
}

// Values in [0, 1) with runs of equal values, so the winner rule's
// lower-id tie break decides some pairs on both sides of delta = 0.3.
Instance TiedInstance(uint64_t seed, int64_t n) {
  Rng rng(seed);
  std::vector<double> values;
  for (int64_t i = 0; i < n; ++i) {
    values.push_back(i % 5 == 4 ? values.back() : rng.NextDouble());
  }
  return Instance(values);
}

enum class SkipKind { kNone, kRandom, kAll };

// One group's pair mask (empty for kNone), bits of the upper triangle only.
std::vector<uint64_t> MakeSkip(SkipKind kind, size_t k, size_t stride,
                               Rng* rng) {
  std::vector<uint64_t> skip;
  if (kind == SkipKind::kNone) return skip;
  skip.assign(k * stride, 0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (kind == SkipKind::kAll || rng->NextBounded(3) == 0) {
        skip[i * stride + (j >> 6)] |= uint64_t{1} << (j & 63);
      }
    }
  }
  return skip;
}

bool Skipped(const std::vector<uint64_t>& skip, size_t stride, size_t i,
             size_t j) {
  return !skip.empty() && ((skip[i * stride + (j >> 6)] >> (j & 63)) & 1) != 0;
}

// Runs one group on both sides of `duo` and compares them. A skipped pair
// starts with one bit set, as a memo hit would, which the call must keep.
void ExpectTournamentMatchesVotes(const ModelDuo& duo,
                                  const std::vector<ElementId>& players,
                                  SkipKind kind, Rng* rng,
                                  const std::string& context) {
  const size_t k = players.size();
  LossMatrix got;
  got.Reset(k);
  const size_t stride = got.stride();
  const std::vector<uint64_t> skip = MakeSkip(kind, k, stride, rng);
  std::vector<ComparisonPair> pairs;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (!Skipped(skip, stride, i, j)) {
        pairs.push_back({players[i], players[j]});
      } else if (rng->NextBounded(2) == 0) {
        got.SetLost(i, j);
      } else {
        got.SetLost(j, i);
      }
    }
  }
  LossMatrix want = got;
  std::vector<ElementId> votes(pairs.size(), -1);
  const int64_t produced =
      duo.percall->AsVoteBatch()->GenerateVotes(pairs, votes);
  size_t m = 0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (Skipped(skip, stride, i, j)) continue;
      if (static_cast<int64_t>(m) < produced) {
        if (votes[m] == players[j]) {
          want.SetLost(i, j);
        } else {
          ASSERT_EQ(votes[m], players[i]) << context;
          want.SetLost(j, i);
        }
      }
      ++m;
    }
  }
  const LossMatrix before = got;
  const int64_t answered = duo.batch->AsVoteBatch()->GenerateTournament(
      players, skip, &got);
  EXPECT_EQ(answered, produced) << context;
  EXPECT_TRUE(std::equal(got.words().begin(), got.words().end(),
                         want.words().begin()))
      << context;
  EXPECT_EQ(duo.batch->num_comparisons(), duo.percall->num_comparisons())
      << context;
  EXPECT_EQ(StateBytes(*duo.batch), StateBytes(*duo.percall)) << context;
  // Nothing outside the answered pairs: no diagonal or padding bit, and
  // every skipped pair exactly as the memo left it.
  int64_t stray = 0;
  for (size_t i = 0; i < k; ++i) {
    stray += got.Lost(i, i);
    for (size_t j = k; j < stride * 64; ++j) stray += got.Lost(i, j);
    for (size_t j = i + 1; j < k; ++j) {
      if (!Skipped(skip, stride, i, j)) continue;
      stray += got.Lost(i, j) != before.Lost(i, j);
      stray += got.Lost(j, i) != before.Lost(j, i);
    }
  }
  EXPECT_EQ(stray, 0) << context;
}

TEST(VoteBatchEquivalenceTest, TournamentMatchesGenerateVotesOverItsPairs) {
  const Instance instance = TiedInstance(61, 256);
  for (const bool simd : {true, false}) {
    SetRngBulkSimd(simd);
    for (ModelDuo& duo : TournamentDuos(instance, 900)) {
      Rng rng(62);
      // One duo answers every group in turn, so each call also starts from
      // the state the previous one left.
      for (const size_t k : {2, 3, 63, 64, 65, 130, 200}) {
        for (const SkipKind kind :
             {SkipKind::kNone, SkipKind::kRandom, SkipKind::kAll}) {
          std::vector<ElementId> players = instance.AllElements();
          rng.Shuffle(&players);
          players.resize(k);
          ExpectTournamentMatchesVotes(
              duo, players, kind, &rng,
              duo.name + " simd=" + std::to_string(simd) +
                  " k=" + std::to_string(k) +
                  " skip=" + std::to_string(static_cast<int>(kind)));
        }
      }
      // A player outside the instance: the same answered prefix.
      for (const ElementId bad :
           {static_cast<ElementId>(-1),
            static_cast<ElementId>(instance.size())}) {
        std::vector<ElementId> players = instance.AllElements();
        rng.Shuffle(&players);
        players.resize(70);
        players[40] = bad;
        for (const SkipKind kind : {SkipKind::kNone, SkipKind::kRandom}) {
          ExpectTournamentMatchesVotes(
              duo, players, kind, &rng,
              duo.name + " simd=" + std::to_string(simd) +
                  " bad=" + std::to_string(bad));
        }
      }
    }
  }
  SetRngBulkSimd(true);
}

// Regression for the pair-key aliasing bug: a negative or out-of-range id
// must stop the batch at the longest valid prefix — unanswered and
// uncharged — never silently alias another element's pair key.
TEST(VoteBatchEquivalenceTest, InvalidIdStopsTheBatchUncharged) {
  Rng value_rng(41);
  std::vector<double> values;
  for (int i = 0; i < 8; ++i) values.push_back(value_rng.NextDouble());
  Instance instance(values);
  for (ElementId bad : {static_cast<ElementId>(-1),
                        static_cast<ElementId>(instance.size())}) {
    for (ModelDuo& duo : MakeModelDuos(instance, 500)) {
      const std::vector<ComparisonPair> prefix = {{0, 1}, {2, 3}};
      std::vector<ComparisonPair> pairs = prefix;
      pairs.push_back({bad, 2});
      pairs.push_back({4, 5});  // Valid but after the stop: not answered.
      ExpectBatchMatchesPerCall(duo, std::span<const ComparisonPair>(pairs)
                                         .first(prefix.size()));

      std::vector<ElementId> out(pairs.size(), -7);
      VoteBatchComparator* vb = duo.batch->AsVoteBatch();
      const int64_t before = duo.batch->num_comparisons();
      EXPECT_EQ(vb->GenerateVotes(pairs, out),
                static_cast<int64_t>(prefix.size()))
          << duo.name << " bad=" << bad;
      EXPECT_EQ(duo.batch->num_comparisons(),
                before + static_cast<int64_t>(prefix.size()))
          << duo.name;
      EXPECT_EQ(out[2], -7) << duo.name;  // Untouched past the prefix.
      EXPECT_EQ(out[3], -7) << duo.name;
    }
  }
}

// Unified pair keys (core/pair_key.h): order-insensitive, collision-free
// over valid ids; negative ids are refused by the debug CHECK instead of
// silently aliasing via unsigned wrap-around (the old static_cast bug).
TEST(PairKeyTest, KeysAreOrderInsensitiveAndDistinct) {
  EXPECT_EQ(PackPairKey(2, 3), PackPairKey(3, 2));
  EXPECT_NE(PackPairKey(2, 3), PackPairKey(2, 4));
  EXPECT_NE(PackPairKey(0, 1), PackPairKey(1, 2));
  EXPECT_TRUE(PairKeyable(0, 1));
  EXPECT_FALSE(PairKeyable(-1, 1));
  EXPECT_FALSE(PairKeyable(1, -2147483648));
}

#ifndef NDEBUG
TEST(PairKeyDeathTest, NegativeIdIsRefusedNotAliased) {
  EXPECT_DEATH(PackPairKey(-1, 2), "PairKeyable");
}
#endif

// Property sweep: no comparator may ever return an element outside {a, b}.
class WorkerModelContractTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkerModelContractTest, AnswersAreAlwaysOneOfTheArguments) {
  const uint64_t seed = GetParam();
  std::vector<double> values;
  Rng rng(seed);
  for (int i = 0; i < 12; ++i) values.push_back(rng.NextDouble());
  Instance instance(values);

  ThresholdComparator threshold(&instance, ThresholdModel{0.3, 0.1}, seed);
  RelativeErrorComparator relative(&instance, {}, seed + 1);
  PersistentBiasComparator bias(&instance, CarsLikeOptions(), seed + 2);

  for (ElementId a = 0; a < instance.size(); ++a) {
    for (ElementId b = 0; b < instance.size(); ++b) {
      if (a == b) continue;
      for (Comparator* cmp :
           {static_cast<Comparator*>(&threshold),
            static_cast<Comparator*>(&relative),
            static_cast<Comparator*>(&bias)}) {
        const ElementId winner = cmp->Compare(a, b);
        EXPECT_TRUE(winner == a || winner == b);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkerModelContractTest,
                         ::testing::Values<uint64_t>(1, 2, 3, 42, 1337));

}  // namespace
}  // namespace crowdmax
