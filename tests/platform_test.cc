// Tests for the crowdsourcing platform simulator: workers, gold quality
// control, batch aggregation, step accounting and the Comparator adapter.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/comparator.h"
#include "core/instance.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "platform/gold.h"
#include "platform/platform.h"
#include "platform/worker.h"

namespace crowdmax {
namespace {

// --------------------------------------------------------------- Worker.

TEST(SimulatedWorkerTest, HonestWorkerFollowsModel) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  SimulatedWorker worker(0, &oracle, {}, /*seed=*/1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(worker.Answer({0, 1}), 1);
  }
  EXPECT_EQ(worker.tasks_answered(), 20);
  EXPECT_FALSE(worker.is_spammer());
}

TEST(SimulatedWorkerTest, SlipNoiseFlipsAnswers) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  SimulatedWorker::Options options;
  options.slip_probability = 0.25;
  SimulatedWorker worker(0, &oracle, options, /*seed=*/2);
  int wrong = 0;
  constexpr int kTrials = 8000;
  for (int i = 0; i < kTrials; ++i) {
    if (worker.Answer({0, 1}) == 0) ++wrong;
  }
  EXPECT_NEAR(static_cast<double>(wrong) / kTrials, 0.25, 0.03);
}

TEST(SimulatedWorkerTest, SpammerIsACoin) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  SimulatedWorker::Options options;
  options.spammer = true;
  SimulatedWorker worker(7, &oracle, options, /*seed=*/3);
  int wins_b = 0;
  constexpr int kTrials = 8000;
  for (int i = 0; i < kTrials; ++i) {
    if (worker.Answer({0, 1}) == 1) ++wins_b;
  }
  EXPECT_NEAR(static_cast<double>(wins_b) / kTrials, 0.5, 0.03);
  EXPECT_TRUE(worker.is_spammer());
}

// ----------------------------------------------------------------- Gold.

TEST(GoldQualityControlTest, UntestedWorkersAreTrusted) {
  Instance gold({1.0, 2.0});
  GoldQualityControl control(&gold, {});
  EXPECT_TRUE(control.IsTrusted(0));
  EXPECT_EQ(control.stats(0).asked, 0);
}

TEST(GoldQualityControlTest, AccurateWorkerStaysTrusted) {
  Instance gold({1.0, 2.0});
  GoldQualityControl control(&gold, {});
  for (int i = 0; i < 10; ++i) control.RecordGoldAnswer(0, {0, 1}, 1);
  EXPECT_TRUE(control.IsTrusted(0));
  EXPECT_EQ(control.stats(0).correct, 10);
}

TEST(GoldQualityControlTest, InaccurateWorkerLosesTrust) {
  Instance gold({1.0, 2.0});
  GoldQualityControl control(&gold, {});
  for (int i = 0; i < 10; ++i) control.RecordGoldAnswer(3, {0, 1}, 0);
  EXPECT_FALSE(control.IsTrusted(3));
  EXPECT_EQ(control.num_untrusted(), 1);
}

TEST(GoldQualityControlTest, GracePeriodBeforeJudging) {
  Instance gold({1.0, 2.0});
  GoldQualityControl::Options options;
  options.min_gold_answers = 5;
  GoldQualityControl control(&gold, options);
  for (int i = 0; i < 4; ++i) control.RecordGoldAnswer(0, {0, 1}, 0);
  EXPECT_TRUE(control.IsTrusted(0));  // Only 4 answers; still in grace.
  control.RecordGoldAnswer(0, {0, 1}, 0);
  EXPECT_FALSE(control.IsTrusted(0));
}

TEST(GoldQualityControlTest, SeventyPercentBoundary) {
  Instance gold({1.0, 2.0});
  GoldQualityControl::Options options;
  options.min_gold_answers = 10;
  GoldQualityControl control(&gold, options);
  // 7 correct, 3 wrong => exactly 0.7 => trusted.
  for (int i = 0; i < 7; ++i) control.RecordGoldAnswer(0, {0, 1}, 1);
  for (int i = 0; i < 3; ++i) control.RecordGoldAnswer(0, {0, 1}, 0);
  EXPECT_TRUE(control.IsTrusted(0));
  // One more wrong answer drops below 0.7.
  control.RecordGoldAnswer(0, {0, 1}, 0);
  EXPECT_FALSE(control.IsTrusted(0));
}

// ------------------------------------------------------------- Platform.

std::vector<ComparisonTask> MakeGoldTasks(const Instance& gold) {
  std::vector<ComparisonTask> tasks;
  for (ElementId a = 0; a < gold.size(); ++a) {
    for (ElementId b = a + 1; b < gold.size(); ++b) tasks.push_back({a, b});
  }
  return tasks;
}

TEST(CrowdPlatformTest, CreateValidation) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;

  EXPECT_FALSE(
      CrowdPlatform::Create(nullptr, &instance, {}, options).ok());
  EXPECT_FALSE(CrowdPlatform::Create(&oracle, nullptr, {}, options).ok());

  PlatformOptions bad_workers = options;
  bad_workers.num_workers = 0;
  EXPECT_FALSE(
      CrowdPlatform::Create(&oracle, &instance, {}, bad_workers).ok());

  PlatformOptions bad_spam = options;
  bad_spam.spammer_fraction = 1.0;
  EXPECT_FALSE(CrowdPlatform::Create(&oracle, &instance, {}, bad_spam).ok());

  // Gold task referencing an element outside the gold instance.
  EXPECT_FALSE(
      CrowdPlatform::Create(&oracle, &instance, {{0, 9}}, options).ok());
}

TEST(CrowdPlatformTest, SubmitBatchValidation) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 5;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());

  EXPECT_FALSE((*platform)->SubmitBatch({}, 1).ok());
  EXPECT_FALSE((*platform)->SubmitBatch({{0, 1}}, 0).ok());
  EXPECT_FALSE((*platform)->SubmitBatch({{0, 1}}, 6).ok());
}

TEST(CrowdPlatformTest, MajorityAggregationWithHonestPool) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 21;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());

  Result<std::vector<TaskOutcome>> outcomes =
      (*platform)->SubmitBatch({{0, 1}}, 7);
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 1u);
  EXPECT_EQ((*outcomes)[0].majority_winner, 1);
  EXPECT_TRUE((*outcomes)[0].unanimous);
  EXPECT_EQ((*outcomes)[0].counted_votes, 7);
  EXPECT_EQ((*platform)->total_votes(), 7);
  EXPECT_EQ((*platform)->logical_steps(), 1);
}

TEST(CrowdPlatformTest, GoldControlSuppressesSpammerVotes) {
  // A pool with heavy spam: after enough gold exposure, spammers get
  // flagged and their votes stop counting.
  Result<Instance> gold_instance = UniformInstance(20, /*seed=*/5, 0.0, 10.0);
  ASSERT_TRUE(gold_instance.ok());
  OracleComparator oracle(&*gold_instance);
  PlatformOptions options;
  options.num_workers = 20;
  options.spammer_fraction = 0.4;
  options.gold_task_probability = 0.5;
  options.seed = 7;
  auto platform = CrowdPlatform::Create(
      &oracle, &*gold_instance, MakeGoldTasks(*gold_instance), options);
  ASSERT_TRUE(platform.ok());

  // Warm up the gold ledger.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 10).ok());
  }
  EXPECT_GT((*platform)->gold_votes(), 0);
  EXPECT_GT((*platform)->gold().num_untrusted(), 0);
  EXPECT_GT((*platform)->discarded_votes(), 0);
}

TEST(CrowdPlatformTest, PhysicalStepsScaleWithLoad) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 10;
  options.worker_capacity_per_physical_step = 1;
  options.spammer_fraction = 0.0;
  options.gold_task_probability = 0.0;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());

  // 4 tasks x 5 votes = 20 assignments; capacity 10/step => 2 physical
  // steps for this single logical step.
  std::vector<ComparisonTask> batch(4, ComparisonTask{0, 1});
  ASSERT_TRUE((*platform)->SubmitBatch(batch, 5).ok());
  EXPECT_EQ((*platform)->logical_steps(), 1);
  EXPECT_EQ((*platform)->physical_steps(), 2);
}

TEST(CrowdPlatformTest, DeterministicForSameSeed) {
  Result<Instance> instance = UniformInstance(30, /*seed=*/9);
  ASSERT_TRUE(instance.ok());
  auto run = [&](uint64_t seed) {
    ThresholdComparator crowd(&*instance, ThresholdModel{0.05, 0.1},
                              /*seed=*/100);
    PlatformOptions options;
    options.seed = seed;
    auto platform = CrowdPlatform::Create(&crowd, &*instance, {}, options);
    CROWDMAX_CHECK(platform.ok());
    std::vector<ElementId> winners;
    for (ElementId e = 1; e < 10; ++e) {
      auto outcomes = (*platform)->SubmitBatch({{0, e}}, 5);
      CROWDMAX_CHECK(outcomes.ok());
      winners.push_back((*outcomes)[0].majority_winner);
    }
    return winners;
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(CrowdPlatformTest, TranscriptRecordsEveryVote) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 10;
  options.spammer_fraction = 0.0;
  options.gold_task_probability = 0.0;
  options.record_transcript = true;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());

  ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 3).ok());
  ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}, {1, 0}}, 5).ok());

  const std::vector<TaskOutcome>& transcript = (*platform)->transcript();
  ASSERT_EQ(transcript.size(), 3u);
  EXPECT_EQ(transcript[0].logical_step, 1);
  EXPECT_EQ(transcript[1].logical_step, 2);
  EXPECT_EQ(transcript[0].votes.size(), 3u);
  EXPECT_EQ(transcript[2].votes.size(), 5u);

  std::ostringstream csv;
  ASSERT_TRUE((*platform)->ExportTranscriptCsv(csv).ok());
  const std::string s = csv.str();
  // Header plus one row per vote (3 + 5 + 5 = 13).
  EXPECT_EQ(static_cast<int>(std::count(s.begin(), s.end(), '\n')), 14);
  EXPECT_NE(s.find("logical_step,a,b,worker_id"), std::string::npos);
}

TEST(CrowdPlatformTest, TranscriptExportRequiresOptIn) {
  Instance instance({1.0, 5.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 1).ok());
  EXPECT_TRUE((*platform)->transcript().empty());
  std::ostringstream csv;
  Status status = (*platform)->ExportTranscriptCsv(csv);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(PlatformComparatorTest, AdaptsPlatformToComparatorInterface) {
  Result<Instance> instance = UniformInstance(40, /*seed=*/11, 0.0, 100.0);
  ASSERT_TRUE(instance.ok());
  OracleComparator oracle(&*instance);
  PlatformOptions options;
  options.num_workers = 15;
  options.spammer_fraction = 0.0;
  auto platform = CrowdPlatform::Create(&oracle, &*instance, {}, options);
  ASSERT_TRUE(platform.ok());

  const std::unique_ptr<PlatformComparator> cmp =
      PlatformComparator::Create(platform->get(), /*votes_per_task=*/3).value();
  const ElementId max_elem = instance->MaxElement();
  for (ElementId e = 0; e < instance->size(); ++e) {
    if (e == max_elem) continue;
    EXPECT_EQ(cmp->Compare(max_elem, e), max_elem);
  }
  EXPECT_EQ(cmp->num_comparisons(), instance->size() - 1);
  EXPECT_EQ((*platform)->logical_steps(), instance->size() - 1);
}

TEST(CrowdPlatformTest, HeterogeneousPoolValidation) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 3;

  // Wrong model count.
  EXPECT_FALSE(CrowdPlatform::CreateHeterogeneous({&oracle, &oracle},
                                                  &instance, {}, options)
                   .ok());
  // Null model.
  EXPECT_FALSE(CrowdPlatform::CreateHeterogeneous(
                   {&oracle, nullptr, &oracle}, &instance, {}, options)
                   .ok());
  // Valid.
  EXPECT_TRUE(CrowdPlatform::CreateHeterogeneous(
                  {&oracle, &oracle, &oracle}, &instance, {}, options)
                  .ok());
}

TEST(CrowdPlatformTest, HeterogeneousPoolMixesSkillLevels) {
  // Half the pool resolves everything (tiny threshold), half is blind
  // (huge threshold, pure coin). Majority-of-all accuracy on a hard pair
  // should land clearly between the two pure-pool extremes.
  Result<Instance> instance = UniformInstance(10, /*seed=*/71, 0.0, 1.0);
  ASSERT_TRUE(instance.ok());

  std::vector<std::unique_ptr<Comparator>> owned;
  std::vector<Comparator*> models;
  for (int i = 0; i < 10; ++i) {
    const double delta = i < 5 ? 1e-9 : 10.0;
    owned.push_back(std::make_unique<ThresholdComparator>(
        &*instance, ThresholdModel{delta, 0.0},
        /*seed=*/100 + static_cast<uint64_t>(i)));
    models.push_back(owned.back().get());
  }
  PlatformOptions options;
  options.num_workers = 10;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  options.seed = 72;
  auto platform = CrowdPlatform::CreateHeterogeneous(models, &*instance, {},
                                                     options);
  ASSERT_TRUE(platform.ok());

  // Pick the hardest pair (smallest distance): skilled workers always
  // right, blind workers coin-flip => majority of 9 votes is right well
  // above coin level but below certainty... with 5 skilled among 9 drawn,
  // the majority is overwhelmingly correct; just confirm a strong bias.
  ElementId best_a = 0;
  ElementId best_b = 1;
  double best_d = 1e9;
  for (ElementId a = 0; a < instance->size(); ++a) {
    for (ElementId b = a + 1; b < instance->size(); ++b) {
      if (instance->Distance(a, b) < best_d) {
        best_d = instance->Distance(a, b);
        best_a = a;
        best_b = b;
      }
    }
  }
  const ElementId correct =
      instance->value(best_a) >= instance->value(best_b) ? best_a : best_b;
  int correct_majorities = 0;
  constexpr int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    auto outcomes = (*platform)->SubmitBatch({{best_a, best_b}}, 9);
    ASSERT_TRUE(outcomes.ok());
    if ((*outcomes)[0].majority_winner == correct) ++correct_majorities;
  }
  const double accuracy =
      static_cast<double>(correct_majorities) / static_cast<double>(kTrials);
  EXPECT_GT(accuracy, 0.9);  // Skilled half dominates the majority.
}

TEST(CrowdPlatformTest, TranscriptCsvRoundTripsVoteFlags) {
  // Spam-heavy pool with gold control: the CSV must carry one row per
  // recorded vote with the counted flag and dispositions matching the
  // in-memory transcript.
  Result<Instance> gold_instance = UniformInstance(20, /*seed=*/5, 0.0, 10.0);
  ASSERT_TRUE(gold_instance.ok());
  OracleComparator oracle(&*gold_instance);
  PlatformOptions options;
  options.num_workers = 20;
  options.spammer_fraction = 0.4;
  options.gold_task_probability = 0.5;
  options.record_transcript = true;
  options.seed = 7;
  auto platform = CrowdPlatform::Create(
      &oracle, &*gold_instance, MakeGoldTasks(*gold_instance), options);
  ASSERT_TRUE(platform.ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 10).ok());
  }
  ASSERT_GT((*platform)->discarded_votes(), 0);

  std::ostringstream csv;
  ASSERT_TRUE((*platform)->ExportTranscriptCsv(csv).ok());
  std::istringstream in(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // Header.
  EXPECT_NE(line.find("counted"), std::string::npos);
  EXPECT_NE(line.find("vote_disposition"), std::string::npos);

  int64_t rows = 0;
  int64_t counted_rows = 0;
  int64_t discarded_rows = 0;
  int64_t total_votes = 0;
  int64_t counted_votes = 0;
  for (const TaskOutcome& outcome : (*platform)->transcript()) {
    total_votes += static_cast<int64_t>(outcome.votes.size());
    counted_votes += outcome.counted_votes;
  }
  while (std::getline(in, line)) {
    ++rows;
    std::vector<std::string> fields;
    std::istringstream fields_in(line);
    std::string field;
    while (std::getline(fields_in, field, ',')) fields.push_back(field);
    ASSERT_EQ(fields.size(), 11u) << line;
    if (fields[5] == "1") {
      ++counted_rows;
      EXPECT_EQ(fields[8], "counted") << line;
    } else if (fields[8] == "discarded") {
      ++discarded_rows;
    }
    // The retry hint is disposition-level: answered tasks need no retry,
    // dropped/no-quorum tasks suggest re-issue one step later.
    EXPECT_EQ(fields[10], fields[9] == "answered" ? "0" : "1") << line;
  }
  // One row per recorded vote; flags reconcile with the counters.
  EXPECT_EQ(rows, total_votes);
  EXPECT_EQ(counted_rows, counted_votes);
  EXPECT_EQ(discarded_rows, (*platform)->discarded_votes());
}

// Quote-aware RFC-4180 parser: fields may be quoted, embedded quotes are
// doubled, and quoted fields may span physical lines.
std::vector<std::vector<std::string>> ParseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      record.push_back(field);
      field.clear();
    } else if (c == '\n') {
      record.push_back(field);
      field.clear();
      records.push_back(record);
      record.clear();
    } else {
      field += c;
    }
  }
  return records;
}

TEST(CrowdPlatformTest, TranscriptCsvEscapesAdversarialLabels) {
  // Dataset-derived item names may contain the full CSV arsenal: commas,
  // quotes and newlines. The labeled export must escape them so a
  // quote-aware parser recovers every field of every row intact.
  Instance instance({1.0, 5.0, 9.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 10;
  options.spammer_fraction = 0.0;
  options.gold_task_probability = 0.0;
  options.record_transcript = true;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}, {1, 2}}, 3).ok());

  const std::vector<std::string> labels = {
      "plain", "comma, inside", "say \"cheese\"\nsecond line"};
  auto labeler = [&](ElementId id) {
    return labels[static_cast<size_t>(id)];
  };

  std::ostringstream csv;
  ASSERT_TRUE((*platform)->ExportTranscriptCsv(csv, labeler).ok());
  const std::vector<std::vector<std::string>> records = ParseCsv(csv.str());
  // Header plus one record per vote (2 tasks x 3 votes) — the embedded
  // newline must NOT add records.
  ASSERT_EQ(records.size(), 7u);
  ASSERT_EQ(records[0].size(), 13u);
  EXPECT_EQ(records[0][3], "label_a");
  EXPECT_EQ(records[0][4], "label_b");
  for (size_t r = 1; r < records.size(); ++r) {
    const std::vector<std::string>& row = records[r];
    ASSERT_EQ(row.size(), 13u);
    // Labels round-trip to the exact labeler output for the row's ids.
    const auto a = static_cast<size_t>(std::stoll(row[1]));
    const auto b = static_cast<size_t>(std::stoll(row[2]));
    EXPECT_EQ(row[3], labels[a]);
    EXPECT_EQ(row[4], labels[b]);
    // Disposition columns stay machine-readable; an answered task carries
    // no retry hint.
    EXPECT_EQ(row[10], "counted");
    EXPECT_EQ(row[11], "answered");
    EXPECT_EQ(row[12], "0");
  }

  // The unlabeled export keeps the same shape minus the label columns.
  std::ostringstream plain;
  ASSERT_TRUE((*platform)->ExportTranscriptCsv(plain).ok());
  const auto plain_records = ParseCsv(plain.str());
  ASSERT_EQ(plain_records.size(), 7u);
  EXPECT_EQ(plain_records[0].size(), 11u);
}

TEST(PlatformAdapterTest, FactoriesValidateArguments) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 5;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());

  EXPECT_FALSE(PlatformComparator::Create(nullptr, 1).ok());
  EXPECT_FALSE(PlatformComparator::Create(platform->get(), 0).ok());
  EXPECT_FALSE(PlatformComparator::Create(platform->get(), 6).ok());
  auto comparator = PlatformComparator::Create(platform->get(), 3);
  ASSERT_TRUE(comparator.ok());
  EXPECT_EQ((*comparator)->Compare(0, 1), 1);

  EXPECT_FALSE(PlatformBatchExecutor::Create(nullptr, 1).ok());
  EXPECT_FALSE(PlatformBatchExecutor::Create(platform->get(), 0).ok());
  EXPECT_FALSE(PlatformBatchExecutor::Create(platform->get(), 6).ok());
  auto executor = PlatformBatchExecutor::Create(platform->get(), 3);
  ASSERT_TRUE(executor.ok());
  Result<std::vector<BatchTaskResult>> results =
      (*executor)->TryExecuteBatch({{0, 1}});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE((*results)[0].answered);
  EXPECT_EQ((*results)[0].winner, 1);
}

TEST(PlatformAdapterTest, ResetCountersSnapshotsPlatformUsage) {
  Instance instance({1.0, 2.0, 3.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 10;
  options.spammer_fraction = 0.0;
  options.gold_task_probability = 0.0;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());

  // Two executors over one platform, mimicking the naive/expert phases of
  // Algorithm 1. Phase attribution must not double-count phase 1's votes.
  auto naive = PlatformBatchExecutor::Create(platform->get(), /*votes=*/3);
  auto expert = PlatformBatchExecutor::Create(platform->get(), /*votes=*/5);
  ASSERT_TRUE(naive.ok() && expert.ok());

  // 2 tasks x 3 votes, then the expert phase starts: 1 task x 5 votes.
  ASSERT_TRUE((*naive)->TryExecuteBatch({{0, 1}, {1, 2}}).ok());
  (*expert)->ResetCounters();
  ASSERT_TRUE((*expert)->TryExecuteBatch({{0, 2}}).ok());

  EXPECT_EQ((*naive)->platform_votes_since_reset(), 11);
  EXPECT_EQ((*expert)->platform_votes_since_reset(), 5);
  EXPECT_EQ((*expert)->platform_logical_steps_since_reset(), 1);
  EXPECT_EQ((*expert)->logical_steps(), 1);

  // ResetCounters through the base interface re-snapshots.
  BatchExecutor* base = naive->get();
  base->ResetCounters();
  EXPECT_EQ((*naive)->platform_votes_since_reset(), 0);
  EXPECT_EQ(base->logical_steps(), 0);
}

// Regression for the out-of-order accounting sweep: the executor-own
// tallies (executor_votes / executor_discarded_votes) and the banked
// latency are folded in per submission, from that submission's own
// outcomes, so two executors interleaving on one platform attribute every
// vote and every round-trip draw exactly once — no matter which executor
// submitted last. The *_since_reset() accessors, being platform-wide
// deltas, cannot make that distinction; the executor-own tallies must.
TEST(PlatformAdapterTest, InterleavedExecutorsAttributeVotesAndLatencyOnce) {
  Instance instance({1.0, 2.0, 3.0, 4.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 10;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  options.gold_task_probability = 0.0;
  options.latency.base_micros = 500;
  options.latency.per_task_micros = 100;
  options.latency.seed = 11;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());

  auto naive = PlatformBatchExecutor::Create(platform->get(), /*votes=*/3);
  auto expert = PlatformBatchExecutor::Create(platform->get(), /*votes=*/5);
  ASSERT_TRUE(naive.ok() && expert.ok());

  // Interleave: naive, expert, naive. Each executor banks only its own
  // submissions' votes and latency draws at submission time.
  ASSERT_TRUE((*naive)->TryExecuteBatch({{0, 1}, {2, 3}}).ok());  // 2 x 3.
  const int64_t naive_first_latency =
      (*platform)->last_batch_latency_micros();
  ASSERT_TRUE((*expert)->TryExecuteBatch({{0, 2}}).ok());  // 1 task x 5.
  const int64_t expert_latency = (*platform)->last_batch_latency_micros();
  ASSERT_TRUE((*naive)->TryExecuteBatch({{1, 3}}).ok());  // 1 task x 3.
  const int64_t naive_second_latency =
      (*platform)->last_batch_latency_micros();

  EXPECT_EQ((*naive)->executor_votes(), 9);
  EXPECT_EQ((*expert)->executor_votes(), 5);
  EXPECT_EQ((*naive)->executor_discarded_votes(), 0);
  EXPECT_EQ((*expert)->executor_discarded_votes(), 0);
  // Per-task latency terms differ by batch size, so a swapped or
  // double-counted draw cannot cancel out.
  EXPECT_EQ((*naive)->TakeSimulatedLatencyMicros(),
            naive_first_latency + naive_second_latency);
  EXPECT_EQ((*expert)->TakeSimulatedLatencyMicros(), expert_latency);
  // Draining is destructive and exact: nothing is left behind, and the
  // platform-wide total equals the sum of what the executors banked.
  EXPECT_EQ((*naive)->TakeSimulatedLatencyMicros(), 0);
  EXPECT_EQ((*expert)->TakeSimulatedLatencyMicros(), 0);
  EXPECT_EQ((*platform)->total_latency_micros(),
            naive_first_latency + expert_latency + naive_second_latency);

  // ResetCounters zeroes the executor-own tallies and any undrained
  // latency along with the platform snapshots.
  ASSERT_TRUE((*expert)->TryExecuteBatch({{1, 2}}).ok());
  (*expert)->ResetCounters();
  EXPECT_EQ((*expert)->executor_votes(), 0);
  EXPECT_EQ((*expert)->TakeSimulatedLatencyMicros(), 0);
}

TEST(PlatformComparatorTest, SimulatedExpertUsesSevenVotes) {
  Instance instance({1.0, 2.0});
  OracleComparator oracle(&instance);
  PlatformOptions options;
  options.num_workers = 10;
  options.spammer_fraction = 0.0;
  options.gold_task_probability = 0.0;
  auto platform = CrowdPlatform::Create(&oracle, &instance, {}, options);
  ASSERT_TRUE(platform.ok());
  const std::unique_ptr<PlatformComparator> expert =
      PlatformComparator::Create(platform->get(), /*votes_per_task=*/7).value();
  expert->Compare(0, 1);
  EXPECT_EQ((*platform)->total_votes(), 7);
}

}  // namespace
}  // namespace crowdmax
