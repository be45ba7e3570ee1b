// Tests for the baseline algorithms: single-class 2-MaxFind (the planner's
// naive-only and expert-only plans), the Marcus recursive tournament and
// the Venetis replicated ladder.

#include <vector>

#include <gtest/gtest.h>

#include "baselines/adaptive.h"
#include "baselines/marcus.h"
#include "baselines/venetis.h"
#include "core/cost.h"
#include "core/instance.h"
#include "core/maxfind.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "query/planner.h"

namespace crowdmax {
namespace {

// ----------------------------------------------------------- SingleClass.

TEST(SingleClassTest, NaiveAndExpertBillCorrectly) {
  Result<Instance> instance = UniformInstance(100, /*seed=*/1);
  ASSERT_TRUE(instance.ok());
  OracleComparator worker(&*instance);

  Result<ExpertMaxResult> naive =
      RunMaxPlan(instance->AllElements(), MaxStrategy::kNaiveOnly,
                 ExpertMaxOptions{}, &worker, Execution());
  Result<ExpertMaxResult> expert =
      RunMaxPlan(instance->AllElements(), MaxStrategy::kExpertOnly,
                 ExpertMaxOptions{}, Execution(), &worker);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(expert.ok());

  EXPECT_EQ(naive->best, instance->MaxElement());
  EXPECT_EQ(expert->best, instance->MaxElement());
  EXPECT_GT(naive->paid.naive, 0);
  EXPECT_EQ(naive->paid.expert, 0);
  EXPECT_EQ(expert->paid.naive, 0);
  EXPECT_EQ(expert->paid.expert, naive->paid.naive);

  CostModel model;
  model.naive_cost = 1.0;
  model.expert_cost = 50.0;
  EXPECT_DOUBLE_EQ(naive->CostUnder(model),
                   static_cast<double>(naive->paid.naive));
  EXPECT_DOUBLE_EQ(expert->CostUnder(model),
                   50.0 * static_cast<double>(expert->paid.expert));
}

TEST(SingleClassTest, NaiveOnlyIsInaccurateWithLargeUn) {
  // The paper's Figure 3: 2-MaxFind-naive returns low-ranked elements as
  // u_n grows. Averaged over seeds, its returned rank must be clearly
  // worse than expert-only.
  int64_t naive_rank_sum = 0;
  int64_t expert_rank_sum = 0;
  constexpr int kTrials = 15;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(400, /*seed=*/100 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    const double delta_n = instance->DeltaForU(40);
    const double delta_e = instance->DeltaForU(2);
    ThresholdComparator naive_worker(&*instance,
                                     ThresholdModel{delta_n, 0.0},
                                     /*seed=*/200 + static_cast<uint64_t>(t));
    ThresholdComparator expert_worker(&*instance,
                                      ThresholdModel{delta_e, 0.0},
                                      /*seed=*/300 + static_cast<uint64_t>(t));
    Result<MaxFindResult> naive =
        TwoMaxFind(instance->AllElements(), &naive_worker);
    Result<MaxFindResult> expert =
        TwoMaxFind(instance->AllElements(), &expert_worker);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(expert.ok());
    naive_rank_sum += instance->Rank(naive->best);
    expert_rank_sum += instance->Rank(expert->best);
  }
  EXPECT_GT(naive_rank_sum, 2 * expert_rank_sum);
}

// ---------------------------------------------------------------- Marcus.

TEST(MarcusTest, ExactWithOracle) {
  for (int64_t n : {2, 7, 30, 101}) {
    Result<Instance> instance =
        UniformInstance(n, /*seed=*/static_cast<uint64_t>(n));
    ASSERT_TRUE(instance.ok());
    OracleComparator oracle(&*instance);
    Result<MaxFindResult> result =
        MarcusTournamentMax(instance->AllElements(), &oracle);
    ASSERT_TRUE(result.ok()) << "n=" << n;
    EXPECT_EQ(result->best, instance->MaxElement()) << "n=" << n;
  }
}

TEST(MarcusTest, Validation) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  EXPECT_FALSE(MarcusTournamentMax({}, &oracle).ok());
  EXPECT_FALSE(MarcusTournamentMax({0, 0}, &oracle).ok());
  MarcusOptions bad;
  bad.group_size = 1;
  EXPECT_FALSE(MarcusTournamentMax({0, 1}, &oracle, bad).ok());
}

TEST(MarcusTest, ComparisonCountScalesLinearlyInGroups) {
  // Groups of g cost C(g,2) per group and shrink by factor g per level:
  // total ~ n * (g-1) / 2 * (1 + 1/g + ...) comparisons.
  Result<Instance> instance = UniformInstance(625, /*seed=*/3);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  MarcusOptions options;
  options.group_size = 5;
  Result<MaxFindResult> result =
      MarcusTournamentMax(instance->AllElements(), &oracle, options);
  ASSERT_TRUE(result.ok());
  // Levels: 625 -> 125 -> 25 -> 5 -> 1; comparisons = (125+25+5+1)*C(5,2).
  EXPECT_EQ(result->rounds, 4);
  EXPECT_EQ(result->paid_comparisons, (125 + 25 + 5 + 1) * 10);
}

TEST(MarcusTest, SingletonInput) {
  Instance instance({9.0});
  OracleComparator oracle(&instance);
  Result<MaxFindResult> result = MarcusTournamentMax({0}, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, 0);
  EXPECT_EQ(result->paid_comparisons, 0);
}

// --------------------------------------------------------------- Venetis.

TEST(VenetisTest, ExactWithOracle) {
  Result<Instance> instance = UniformInstance(64, /*seed=*/4);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  Result<MaxFindResult> result =
      VenetisLadderMax(instance->AllElements(), &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, instance->MaxElement());
  EXPECT_EQ(result->rounds, 6);  // log2(64).
  // 63 matches x 3 votes.
  EXPECT_EQ(result->paid_comparisons, 63 * 3);
}

TEST(VenetisTest, Validation) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  EXPECT_FALSE(VenetisLadderMax({}, &oracle).ok());
  EXPECT_FALSE(VenetisLadderMax({1, 1}, &oracle).ok());
  VenetisOptions even;
  even.votes_per_match = 4;
  EXPECT_FALSE(VenetisLadderMax({0, 1}, &oracle, even).ok());
  VenetisOptions zero;
  zero.votes_per_match = 0;
  EXPECT_FALSE(VenetisLadderMax({0, 1}, &oracle, zero).ok());
}

TEST(VenetisTest, ReplicationHelpsUnderProbabilisticModel) {
  // Under the probabilistic (DOTS-like) model, majority-of-9 matches are
  // far more reliable than single-vote matches (the regime where Venetis
  // et al.'s replication tuning makes sense).
  int single_correct = 0;
  int replicated_correct = 0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(32, /*seed=*/500 + static_cast<uint64_t>(t), 1.0, 2.0);
    ASSERT_TRUE(instance.ok());
    RelativeErrorComparator::Options noisy;
    noisy.base_error = 0.35;
    noisy.decay = 3.0;
    RelativeErrorComparator worker_a(&*instance, noisy,
                                     /*seed=*/600 + static_cast<uint64_t>(t));
    RelativeErrorComparator worker_b(&*instance, noisy,
                                     /*seed=*/700 + static_cast<uint64_t>(t));

    VenetisOptions single;
    single.votes_per_match = 1;
    VenetisOptions replicated;
    replicated.votes_per_match = 9;

    Result<MaxFindResult> r1 =
        VenetisLadderMax(instance->AllElements(), &worker_a, single);
    Result<MaxFindResult> r9 =
        VenetisLadderMax(instance->AllElements(), &worker_b, replicated);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r9.ok());
    if (r1->best == instance->MaxElement()) ++single_correct;
    if (r9->best == instance->MaxElement()) ++replicated_correct;
  }
  EXPECT_GT(replicated_correct, single_correct);
}

TEST(VenetisTest, VotesScheduleControlsPerRoundReplication) {
  Result<Instance> instance = UniformInstance(8, /*seed=*/10);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  VenetisOptions options;
  options.votes_schedule = {1, 3, 5};  // Rounds of 4, 2, 1 matches.
  Result<MaxFindResult> result =
      VenetisLadderMax(instance->AllElements(), &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, instance->MaxElement());
  // 4 matches x 1 + 2 matches x 3 + 1 match x 5 = 15 votes.
  EXPECT_EQ(result->paid_comparisons, 15);
}

TEST(VenetisTest, ScheduleLastEntryRepeats) {
  Result<Instance> instance = UniformInstance(16, /*seed=*/11);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  VenetisOptions options;
  options.votes_schedule = {1, 3};  // Rounds 2, 3, 4 all use 3 votes.
  Result<MaxFindResult> result =
      VenetisLadderMax(instance->AllElements(), &oracle, options);
  ASSERT_TRUE(result.ok());
  // 8x1 + 4x3 + 2x3 + 1x3 = 29 votes.
  EXPECT_EQ(result->paid_comparisons, 29);
}

TEST(VenetisTest, ScheduleValidation) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  VenetisOptions even_entry;
  even_entry.votes_schedule = {1, 2};
  EXPECT_FALSE(VenetisLadderMax({0, 1}, &oracle, even_entry).ok());
  VenetisOptions zero_entry;
  zero_entry.votes_schedule = {0};
  EXPECT_FALSE(VenetisLadderMax({0, 1}, &oracle, zero_entry).ok());
}

TEST(MajorityErrorTest, KnownValues) {
  EXPECT_DOUBLE_EQ(MajorityErrorProbability(1, 0.3), 0.3);
  // k=3: p^3 + 3 p^2 (1-p) = 0.027 + 3*0.09*0.7 = 0.216.
  EXPECT_NEAR(MajorityErrorProbability(3, 0.3), 0.216, 1e-12);
  EXPECT_DOUBLE_EQ(MajorityErrorProbability(5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(MajorityErrorProbability(5, 1.0), 1.0);
  // Fair coin: majority error is exactly 1/2 for odd k.
  EXPECT_NEAR(MajorityErrorProbability(21, 0.5), 0.5, 1e-12);
}

TEST(MajorityErrorTest, MonotoneInKForSubHalfError) {
  double prev = MajorityErrorProbability(1, 0.25);
  for (int64_t k = 3; k <= 41; k += 2) {
    const double err = MajorityErrorProbability(k, 0.25);
    EXPECT_LT(err, prev) << "k=" << k;
    prev = err;
  }
}

TEST(VenetisTuningTest, Validation) {
  EXPECT_FALSE(TuneVenetisSchedule(1, 100, 0.2).ok());
  EXPECT_FALSE(TuneVenetisSchedule(16, 10, 0.2).ok());   // budget < n-1.
  EXPECT_FALSE(TuneVenetisSchedule(16, 100, 0.5).ok());  // p >= 0.5.
}

TEST(VenetisTuningTest, RespectsBudgetAndOddness) {
  Result<VenetisTuning> tuning = TuneVenetisSchedule(64, 300, 0.2);
  ASSERT_TRUE(tuning.ok());
  EXPECT_LE(tuning->total_votes, 300);
  EXPECT_GE(tuning->total_votes, 63);
  for (int64_t votes : tuning->schedule) {
    EXPECT_GE(votes, 1);
    EXPECT_EQ(votes % 2, 1);
  }
}

TEST(VenetisTuningTest, MoreBudgetNeverHurtsPredictedSurvival) {
  double prev = 0.0;
  for (int64_t budget : {63, 150, 400, 1000, 4000}) {
    Result<VenetisTuning> tuning = TuneVenetisSchedule(64, budget, 0.25);
    ASSERT_TRUE(tuning.ok());
    EXPECT_GE(tuning->predicted_max_survival, prev - 1e-12);
    prev = tuning->predicted_max_survival;
  }
  EXPECT_GT(prev, 0.8);  // Large budgets drive survival high.
}

TEST(VenetisTuningTest, TunedScheduleBeatsUniformAtSameBudget) {
  // Under a constant per-vote error, the tuned schedule must achieve at
  // least the predicted survival of uniform replication with the same
  // spend. Compare measured hit rates over many ladders.
  constexpr int64_t kN = 32;
  constexpr double kError = 0.25;
  // Uniform: 3 votes everywhere = 3 * 31 = 93 votes.
  Result<VenetisTuning> tuning = TuneVenetisSchedule(kN, 93, kError);
  ASSERT_TRUE(tuning.ok());

  int uniform_hits = 0;
  int tuned_hits = 0;
  constexpr int kTrials = 600;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(kN, /*seed=*/4000 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    // Constant per-vote error: threshold model with delta=0, eps=kError.
    ThresholdComparator worker_a(&*instance, ThresholdModel{0.0, kError},
                                 /*seed=*/5000 + static_cast<uint64_t>(t));
    ThresholdComparator worker_b(&*instance, ThresholdModel{0.0, kError},
                                 /*seed=*/6000 + static_cast<uint64_t>(t));
    VenetisOptions uniform;
    uniform.votes_per_match = 3;
    VenetisOptions tuned;
    tuned.votes_schedule = tuning->schedule;
    Result<MaxFindResult> u =
        VenetisLadderMax(instance->AllElements(), &worker_a, uniform);
    Result<MaxFindResult> v =
        VenetisLadderMax(instance->AllElements(), &worker_b, tuned);
    ASSERT_TRUE(u.ok() && v.ok());
    if (u->best == instance->MaxElement()) ++uniform_hits;
    if (v->best == instance->MaxElement()) ++tuned_hits;
  }
  // The greedy allocation shifts votes to late rounds (few matches, high
  // leverage); it must not lose to uniform, and typically wins clearly.
  EXPECT_GE(tuned_hits, uniform_hits - 15);
  EXPECT_GT(tuned_hits, kTrials / 2);
}

TEST(VenetisTest, ReplicationCannotBeatTheThresholdModel) {
  // The paper's motivation: under the threshold model, even large
  // replication leaves near-max elements unresolvable. Count how often the
  // ladder picks the exact maximum when several elements are within delta.
  int replicated_correct = 0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(32, /*seed=*/800 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(8);
    ThresholdComparator worker(&*instance, ThresholdModel{delta, 0.0},
                               /*seed=*/900 + static_cast<uint64_t>(t));
    VenetisOptions replicated;
    replicated.votes_per_match = 21;
    Result<MaxFindResult> result =
        VenetisLadderMax(instance->AllElements(), &worker, replicated);
    ASSERT_TRUE(result.ok());
    if (result->best == instance->MaxElement()) ++replicated_correct;
  }
  // With ~8 indistinguishable elements, the exact max survives the ladder
  // only a minority of the time, replication notwithstanding.
  EXPECT_LT(replicated_correct, kTrials * 3 / 4);
}

// --------------------------------------------------------------- Adaptive.

TEST(AdaptiveMaxTest, Validation) {
  Instance instance({1.0, 2.0, 3.0});
  OracleComparator oracle(&instance);
  AdaptiveMaxOptions options;
  options.budget = 1;  // < n - 1.
  EXPECT_FALSE(
      AdaptiveEloMax(instance.AllElements(), &oracle, options).ok());
  options.budget = 10;
  options.k_factor = 0.0;
  EXPECT_FALSE(
      AdaptiveEloMax(instance.AllElements(), &oracle, options).ok());
  options.k_factor = 24.0;
  options.exploration = -1.0;
  EXPECT_FALSE(
      AdaptiveEloMax(instance.AllElements(), &oracle, options).ok());
  options.exploration = 100.0;
  EXPECT_FALSE(AdaptiveEloMax({}, &oracle, options).ok());
  EXPECT_FALSE(AdaptiveEloMax({0, 0}, &oracle, options).ok());
}

TEST(AdaptiveMaxTest, SingletonShortCircuit) {
  Instance instance({5.0});
  OracleComparator oracle(&instance);
  AdaptiveMaxOptions options;
  options.budget = 0;
  Result<MaxFindResult> result = AdaptiveEloMax({0}, &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best, 0);
  EXPECT_EQ(result->paid_comparisons, 0);
}

TEST(AdaptiveMaxTest, SpendsExactlyTheBudget) {
  Result<Instance> instance = UniformInstance(40, /*seed=*/20);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  AdaptiveMaxOptions options;
  options.budget = 157;
  Result<MaxFindResult> result =
      AdaptiveEloMax(instance->AllElements(), &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->paid_comparisons, 157);
}

TEST(AdaptiveMaxTest, FindsTheMaxWithOracleAndModestBudget) {
  int hits = 0;
  constexpr int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(50, /*seed=*/7000 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    OracleComparator oracle(&*instance);
    AdaptiveMaxOptions options;
    options.budget = 5 * 50;
    options.seed = 7100 + static_cast<uint64_t>(t);
    Result<MaxFindResult> result =
        AdaptiveEloMax(instance->AllElements(), &oracle, options);
    ASSERT_TRUE(result.ok());
    if (result->best == instance->MaxElement()) ++hits;
  }
  EXPECT_GE(hits, kTrials - 1);
}

TEST(AdaptiveMaxTest, FocusedBudgetBeatsLadderUnderProbabilisticModel) {
  // At an equal budget under independent noise, adaptive querying should
  // beat the one-shot ladder (which spends votes on hopeless matches).
  int adaptive_hits = 0;
  int ladder_hits = 0;
  constexpr int kTrials = 60;
  constexpr int64_t kN = 32;
  constexpr int64_t kBudget = 3 * (kN - 1);
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(kN, /*seed=*/7500 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    ThresholdComparator worker_a(&*instance, ThresholdModel{0.0, 0.25},
                                 /*seed=*/7600 + static_cast<uint64_t>(t));
    ThresholdComparator worker_b(&*instance, ThresholdModel{0.0, 0.25},
                                 /*seed=*/7700 + static_cast<uint64_t>(t));

    AdaptiveMaxOptions adaptive;
    adaptive.budget = kBudget;
    adaptive.seed = 7800 + static_cast<uint64_t>(t);
    Result<MaxFindResult> a =
        AdaptiveEloMax(instance->AllElements(), &worker_a, adaptive);
    VenetisOptions ladder;
    ladder.votes_per_match = 3;
    Result<MaxFindResult> v =
        VenetisLadderMax(instance->AllElements(), &worker_b, ladder);
    ASSERT_TRUE(a.ok() && v.ok());
    if (a->best == instance->MaxElement()) ++adaptive_hits;
    if (v->best == instance->MaxElement()) ++ladder_hits;
  }
  EXPECT_GE(adaptive_hits, ladder_hits - 6);
  EXPECT_GT(adaptive_hits, kTrials / 3);
}

TEST(AdaptiveMaxTest, ThresholdModelDefeatsAdaptivityToo) {
  // The paper's thesis cuts against every naive-only scheme, adaptive or
  // not: with ~8 indistinguishable contenders, the exact max is found only
  // a minority of the time regardless of budget.
  int hits = 0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    Result<Instance> instance =
        UniformInstance(32, /*seed=*/8000 + static_cast<uint64_t>(t));
    ASSERT_TRUE(instance.ok());
    const double delta = instance->DeltaForU(8);
    ThresholdComparator worker(&*instance, ThresholdModel{delta, 0.0},
                               /*seed=*/8100 + static_cast<uint64_t>(t));
    AdaptiveMaxOptions options;
    options.budget = 20 * 32;  // A generous budget changes nothing.
    options.seed = 8200 + static_cast<uint64_t>(t);
    Result<MaxFindResult> result =
        AdaptiveEloMax(instance->AllElements(), &worker, options);
    ASSERT_TRUE(result.ok());
    if (result->best == instance->MaxElement()) ++hits;
  }
  EXPECT_LT(hits, kTrials * 3 / 4);
}

}  // namespace
}  // namespace crowdmax
