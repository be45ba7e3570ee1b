// Gold quality control under a spammer-heavy pool (spammer_fraction 0.5):
// the platform must eventually distrust the spammers, and Lemma 1 ("the
// maximum survives filtering") must keep holding on DOTS because the
// counted majority is then dominated by honest votes.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/batched.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/instance.h"
#include "core/worker_model.h"
#include "datasets/dots.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

// Easy gold questions: far-apart dot counts that honest workers nearly
// always order correctly while spammers coin-flip.
std::vector<ComparisonTask> EasyGoldTasks(const Instance& instance) {
  std::vector<ComparisonTask> tasks;
  const ElementId half = instance.size() / 2;
  for (ElementId a = 0; a < half; ++a) tasks.push_back({a, a + half});
  return tasks;
}

TEST(GoldQualityTest, SpammerHeavyPoolGetsUntrusted) {
  DotsDataset dots = DotsDataset::Standard();
  Result<DotsDataset> sampled = dots.Sample(30, /*seed=*/600);
  ASSERT_TRUE(sampled.ok());
  Instance instance = sampled->ToInstance();
  RelativeErrorComparator crowd(&instance, DotsWorkerModel(), /*seed=*/601);

  PlatformOptions options;
  options.num_workers = 20;
  options.spammer_fraction = 0.5;
  options.gold_task_probability = 0.5;
  options.seed = 602;
  auto platform = CrowdPlatform::Create(&crowd, &instance,
                                        EasyGoldTasks(instance), options);
  ASSERT_TRUE(platform.ok());
  ASSERT_EQ((*platform)->num_spammers(), 10);

  // Enough exposure for every worker to accumulate a gold record.
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 10).ok());
  }
  // Most spammers are caught (spammers pass a gold question with p=0.5,
  // so surviving the 70% bar over many questions is vanishingly rare)...
  EXPECT_GE((*platform)->gold().num_untrusted(), 8);
  // ...and only spammers can be caught: honest workers' gold accuracy is
  // far above the bar.
  EXPECT_LE((*platform)->gold().num_untrusted(), (*platform)->num_spammers());
  EXPECT_GT((*platform)->discarded_votes(), 0);
}

TEST(GoldQualityTest, LemmaOneSurvivesSpammerHeavyPool) {
  DotsDataset dots = DotsDataset::Standard();
  Result<DotsDataset> sampled = dots.Sample(30, /*seed=*/610);
  ASSERT_TRUE(sampled.ok());
  Instance instance = sampled->ToInstance();
  RelativeErrorComparator crowd(&instance, DotsWorkerModel(), /*seed=*/611);

  PlatformOptions options;
  options.num_workers = 30;
  options.spammer_fraction = 0.5;
  options.gold_task_probability = 0.5;
  options.seed = 612;
  auto platform = CrowdPlatform::Create(&crowd, &instance,
                                        EasyGoldTasks(instance), options);
  ASSERT_TRUE(platform.ok());

  // Warm the gold ledger so spam is muted before filtering starts (the
  // paper's platform runs gold continuously; filtering mid-warm-up only
  // adds noise the majority already tolerates).
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE((*platform)->SubmitBatch({{0, 1}}, 10).ok());
  }
  ASSERT_GT((*platform)->gold().num_untrusted(), 0);

  auto executor = PlatformBatchExecutor::Create(platform->get(), /*votes=*/7);
  ASSERT_TRUE(executor.ok());
  FilterOptions filter;
  filter.u_n = 5;
  Result<FilterResult> result = FilterCandidates(
      instance.AllElements(), filter, executor->get());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->partial);

  // Lemma 1: the element with the fewest dots survives the filter.
  const std::vector<ElementId>& candidates = result->candidates;
  EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                      instance.MaxElement()),
            candidates.end());
  EXPECT_LE(static_cast<int64_t>(candidates.size()), 2 * filter.u_n - 1);
}

}  // namespace
}  // namespace crowdmax
