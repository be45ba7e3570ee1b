// Reproduces Table 1 and the surrounding DOTS experiment (Section 5.3):
// two identical runs of Algorithm 1 on 50 random-dot images over the
// simulated CrowdFlower platform, with gold questions from the golden set
// range and "experts" simulated as majority-of-7 naive votes. The paper
// reports that the phase-1 survivors were the true top images and that the
// final round ordered them essentially perfectly (one adjacent swap in one
// experiment); it also reports that 2-MaxFind alone returned the correct
// image in 13 of 14 repetitions.
//
// Flags: --u_n (default 5, the paper's choice), --seed, --runs_2mf
//        (default 14), --csv.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "core/batched.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/round_engine.h"
#include "core/tournament.h"
#include "datasets/dots.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

// Cross-phase dedup measurement (DESIGN.md §11): DOTS's "experts" are
// simulated from the same naive crowd (majority of 7), so both phases buy
// from one worker class and may legitimately share one SharedPairCache
// class — the final round then reuses phase-1 evidence for every survivor
// pair the filter already resolved instead of re-buying it.
struct DedupOutcome {
  std::vector<ElementId> candidates;
  int64_t expert_issued = 0;
  int64_t expert_paid = 0;
  int64_t expert_hits = 0;
  ElementId pick = -1;
};

DedupOutcome RunTwoPhase(const Instance& instance, int64_t u_n, uint64_t seed,
                         bool share_evidence) {
  RelativeErrorComparator crowd_model(&instance, DotsWorkerModel(), seed);
  PlatformOptions platform_options;
  platform_options.num_workers = 60;
  platform_options.spammer_fraction = 0.1;
  platform_options.seed = seed + 1;
  auto platform =
      CrowdPlatform::Create(&crowd_model, &instance, {}, platform_options);
  CROWDMAX_CHECK(platform.ok());
  auto naive = PlatformBatchExecutor::Create(platform->get(), /*votes=*/3);
  auto expert = PlatformBatchExecutor::Create(platform->get(), /*votes=*/7);
  CROWDMAX_CHECK(naive.ok() && expert.ok());

  SharedPairCache cache;
  FilterOptions filter;
  filter.u_n = u_n;
  filter.memoize = true;
  if (share_evidence) {
    filter.shared_cache = &cache;
    filter.cache_class = 0;  // One class: both phases buy from this crowd.
  }
  Result<FilterResult> phase1 =
      FilterCandidates(instance.AllElements(), filter, naive->get());
  CROWDMAX_CHECK(phase1.ok());

  Result<std::unique_ptr<RoundEngine>> finals_engine =
      RoundEngine::CreateBatched(expert->get(), /*memoize=*/true,
                                 share_evidence ? &cache : nullptr,
                                 /*cache_class=*/0);
  CROWDMAX_CHECK(finals_engine.ok());
  Result<TournamentResult> finals = RunTournamentOnEngine(
      phase1->candidates, finals_engine->get());
  CROWDMAX_CHECK(finals.ok());

  DedupOutcome outcome;
  outcome.candidates = phase1->candidates;
  outcome.expert_issued = (*finals_engine)->issued();
  outcome.expert_paid = (*finals_engine)->paid();
  outcome.expert_hits = (*finals_engine)->cache_hits();
  outcome.pick =
      outcome.candidates[IndexOfMostWins(*finals)];
  return outcome;
}

void ReportCrossPhaseDedup(const Instance& instance, int64_t u_n,
                           uint64_t seed) {
  const DedupOutcome baseline = RunTwoPhase(instance, u_n, seed, false);
  const DedupOutcome dedup = RunTwoPhase(instance, u_n, seed, true);
  // Phase 1 replays identically (same seeds, same submission sequence), so
  // the final rounds rank the same survivor set.
  CROWDMAX_CHECK(baseline.candidates == dedup.candidates);
  const double saved =
      baseline.expert_paid > 0
          ? 100.0 * static_cast<double>(baseline.expert_paid -
                                        dedup.expert_paid) /
                static_cast<double>(baseline.expert_paid)
          : 0.0;
  std::cout << "\n[cross-phase dedup] simulated-expert regime (one worker "
               "class), final round over "
            << baseline.candidates.size() << " survivors:\n"
            << "  baseline expert comparisons: " << baseline.expert_paid
            << "\n  with shared pair cache:      " << dedup.expert_paid
            << " paid, " << dedup.expert_hits << " of " << dedup.expert_issued
            << " served from phase-1 evidence (" << FormatDouble(saved, 1)
            << "% expert spend saved)\n"
            << "  final pick: baseline=" << baseline.pick
            << " dedup=" << dedup.pick
            << " true max=" << instance.MaxElement() << "\n";
}

struct ExperimentOutcome {
  // Final-round position (1-based) per element id; elements that did not
  // reach the final round are absent.
  std::map<ElementId, int64_t> final_positions;
  std::vector<ElementId> candidates;
};

// Runs one DOTS experiment: phase 1 with single naive votes, then a final
// all-play-all among the survivors judged by simulated experts (7 votes).
ExperimentOutcome RunExperiment(const Instance& instance, int64_t u_n,
                                uint64_t seed) {
  RelativeErrorComparator crowd_model(&instance, DotsWorkerModel(), seed);

  PlatformOptions platform_options;
  platform_options.num_workers = 60;
  platform_options.spammer_fraction = 0.1;
  platform_options.seed = seed + 1;
  // Gold tasks: easy, far-apart pairs.
  std::vector<ComparisonTask> gold_tasks;
  for (ElementId a = 0; a + 25 < instance.size(); ++a) {
    gold_tasks.push_back({a, static_cast<ElementId>(a + 25)});
  }
  auto platform = CrowdPlatform::Create(&crowd_model, &instance, gold_tasks,
                                        platform_options);
  CROWDMAX_CHECK(platform.ok());

  // Phase-1 comparisons aggregate 3 worker answers each (the paper's runs
  // requested multiple judgments per pair); the final round uses the
  // 7-vote "simulated experts".
  const std::unique_ptr<PlatformComparator> naive =
      PlatformComparator::Create(platform->get(), /*votes_per_task=*/3).value();
  const std::unique_ptr<PlatformComparator> simulated_expert =
      PlatformComparator::Create(platform->get(), /*votes_per_task=*/7).value();

  FilterOptions filter;
  filter.u_n = u_n;
  Result<FilterResult> phase1 =
      FilterCandidates(instance.AllElements(), filter, naive.get());
  CROWDMAX_CHECK(phase1.ok());

  // Final round: all-play-all among the survivors with simulated experts,
  // ordered by wins (the "ranking of the last round" of Table 1).
  const Result<TournamentResult> finals =
      AllPlayAll(phase1->candidates, simulated_expert.get());
  CROWDMAX_CHECK(finals.ok());
  const std::vector<ElementId> ranked =
      OrderByWins(phase1->candidates, *finals);

  ExperimentOutcome outcome;
  outcome.candidates = phase1->candidates;
  for (size_t pos = 0; pos < ranked.size(); ++pos) {
    outcome.final_positions[ranked[pos]] = static_cast<int64_t>(pos) + 1;
  }
  return outcome;
}

}  // namespace
}  // namespace crowdmax

int main(int argc, char** argv) {
  using namespace crowdmax;
  FlagParser flags = bench::ParseFlagsOrDie(argc, argv);
  bench::MetricsSession metrics_session(flags);
  const int64_t u_n = flags.GetInt("u_n", 5);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int64_t runs_2mf = flags.GetInt("runs_2mf", 14);

  bench::PrintHeader("Table 1",
                     "DOTS on the simulated platform: final-round ranking");

  DotsDataset dots = DotsDataset::Standard();
  Result<DotsDataset> sampled = dots.Sample(50, seed);
  CROWDMAX_CHECK(sampled.ok());
  Instance instance = sampled->ToInstance();

  const ExperimentOutcome exp1 = RunExperiment(instance, u_n, seed + 10);
  const ExperimentOutcome exp2 = RunExperiment(instance, u_n, seed + 20);

  // Rows: the true top images (fewest dots), as in Table 1.
  std::vector<ElementId> by_rank = instance.AllElements();
  std::sort(by_rank.begin(), by_rank.end(), [&](ElementId a, ElementId b) {
    return instance.value(a) > instance.value(b);
  });
  const size_t rows = std::max(exp1.candidates.size(), exp2.candidates.size());

  TablePrinter table({"# dots", "Exp. 1", "Exp. 2"});
  for (size_t i = 0; i < rows && i < by_rank.size(); ++i) {
    const ElementId e = by_rank[i];
    auto fmt = [&](const ExperimentOutcome& exp) -> std::string {
      auto it = exp.final_positions.find(e);
      return it == exp.final_positions.end() ? "-" : FormatInt(it->second);
    };
    table.AddRow({FormatInt(static_cast<int64_t>(-instance.value(e))),
                  fmt(exp1), fmt(exp2)});
  }
  bench::EmitTable(table, flags,
                   "Final-round position of the true top images ('-' = "
                   "eliminated in phase 1); paper: top-9 promoted and "
                   "ordered almost perfectly");

  std::cout << "\nPhase-1 survivors: Exp1=" << exp1.candidates.size()
            << ", Exp2=" << exp2.candidates.size() << " (paper: 9 and 9)\n";

  ReportCrossPhaseDedup(instance, u_n, seed + 10);

  // The paper's companion statistic: naive-only 2-MaxFind repeated 14
  // times returned the correct image in all but one run.
  int correct = 0;
  for (int64_t r = 0; r < runs_2mf; ++r) {
    RelativeErrorComparator crowd_model(&instance, DotsWorkerModel(),
                                        seed + 100 + static_cast<uint64_t>(r));
    PlatformOptions platform_options;
    platform_options.num_workers = 60;
    platform_options.spammer_fraction = 0.1;
    platform_options.seed = seed + 200 + static_cast<uint64_t>(r);
    auto platform =
        CrowdPlatform::Create(&crowd_model, &instance, {}, platform_options);
    CROWDMAX_CHECK(platform.ok());
    // Each 2-MaxFind comparison aggregates 7 worker answers, mirroring the
    // paper's multi-judgment CrowdFlower protocol.
    const std::unique_ptr<PlatformComparator> naive =
        PlatformComparator::Create(platform->get(), 7).value();
    Result<MaxFindResult> result =
        TwoMaxFind(instance.AllElements(), naive.get());
    CROWDMAX_CHECK(result.ok());
    if (result->best == instance.MaxElement()) ++correct;
  }
  std::cout << "\nNaive-only 2-MaxFind: " << correct << "/" << runs_2mf
            << " runs returned the true best image (paper: 13/14).\n"
            << "DOTS is the wisdom-of-crowds regime: simulated experts "
               "suffice, two-phase is overkill.\n";
  return 0;
}
