// Reproduces Table 2 and the surrounding CARS experiment (Section 5.3):
// two runs of Algorithm 1 on 50 cars over the simulated platform, with
// "experts" simulated as majority-of-7 naive votes. The paper's findings:
// the most expensive car always reaches the final round, but the simulated
// experts cannot identify it (in contrast to DOTS), some cars far from the
// top-10 reach the final round, and naive-only 2-MaxFind never returned the
// true maximum in 14 runs. A truly informed expert is required.
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
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/round_engine.h"
#include "core/tournament.h"
#include "core/worker_model.h"
#include "datasets/cars.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

// Cross-phase dedup measurement (DESIGN.md §11). CARS's final round also
// buys its "expert" answers from the same naive crowd (majority of 7), so
// both phases share one worker class and one SharedPairCache class: every
// survivor pair the filter already resolved is served from phase-1
// evidence instead of being re-bought at the 7-vote rate.
struct DedupOutcome {
  std::vector<ElementId> candidates;
  int64_t expert_issued = 0;
  int64_t expert_paid = 0;
  int64_t expert_hits = 0;
  ElementId pick = -1;
};

DedupOutcome RunTwoPhase(const Instance& instance, int64_t u_n, uint64_t seed,
                         bool share_evidence) {
  PersistentBiasComparator crowd_model(&instance, CarsWorkerModel(), seed);
  PlatformOptions platform_options;
  platform_options.num_workers = 50;
  platform_options.spammer_fraction = 0.08;
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
  outcome.pick = outcome.candidates[IndexOfMostWins(*finals)];
  return outcome;
}

void ReportCrossPhaseDedup(const Instance& instance, int64_t u_n,
                           uint64_t seed) {
  const DedupOutcome baseline = RunTwoPhase(instance, u_n, seed, false);
  const DedupOutcome dedup = RunTwoPhase(instance, u_n, seed, true);
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
  std::map<ElementId, int64_t> final_positions;
  std::vector<ElementId> candidates;
  ElementId simulated_expert_pick = -1;
  ElementId true_expert_pick = -1;
};

ExperimentOutcome RunExperiment(const Instance& instance, int64_t u_n,
                                uint64_t seed) {
  PersistentBiasComparator crowd_model(&instance, CarsWorkerModel(), seed);

  PlatformOptions platform_options;
  platform_options.num_workers = 50;
  platform_options.spammer_fraction = 0.08;
  platform_options.seed = seed + 1;
  std::vector<ComparisonTask> gold_tasks;
  for (ElementId a = 0; a + 25 < instance.size(); ++a) {
    gold_tasks.push_back({a, static_cast<ElementId>(a + 25)});
  }
  auto platform = CrowdPlatform::Create(&crowd_model, &instance, gold_tasks,
                                        platform_options);
  CROWDMAX_CHECK(platform.ok());

  // Majority-of-3 naive votes in phase 1 (damps per-query slips), 7-vote
  // "simulated experts" in the final round, as in the paper's protocol.
  const std::unique_ptr<PlatformComparator> naive =
      PlatformComparator::Create(platform->get(), /*votes_per_task=*/3).value();
  const std::unique_ptr<PlatformComparator> simulated_expert =
      PlatformComparator::Create(platform->get(), /*votes_per_task=*/7).value();

  FilterOptions filter;
  filter.u_n = u_n;
  Result<FilterResult> phase1 =
      FilterCandidates(instance.AllElements(), filter, naive.get());
  CROWDMAX_CHECK(phase1.ok());

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
  outcome.simulated_expert_pick = ranked[0];

  // What a true expert (a car-pricing professional: resolves every >= $500
  // gap) would return on the same candidate set.
  ThresholdComparator true_expert(&instance, ThresholdModel{400.0, 0.0},
                                  seed + 2);
  Result<MaxFindResult> expert_run =
      TwoMaxFind(phase1->candidates, &true_expert);
  CROWDMAX_CHECK(expert_run.ok());
  outcome.true_expert_pick = expert_run->best;
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

  bench::PrintHeader("Table 2",
                     "CARS on the simulated platform: final-round ranking");

  CarsDataset catalog = CarsDataset::Standard(seed);
  Result<CarsDataset> sampled = catalog.Sample(50, seed + 1);
  CROWDMAX_CHECK(sampled.ok());
  Instance instance = sampled->ToInstance();

  const ExperimentOutcome exp1 = RunExperiment(instance, u_n, seed + 10);
  const ExperimentOutcome exp2 = RunExperiment(instance, u_n, seed + 20);

  // Rows: the true top-19 cars by price, as in Table 2.
  std::vector<ElementId> by_rank = instance.AllElements();
  std::sort(by_rank.begin(), by_rank.end(), [&](ElementId a, ElementId b) {
    return instance.value(a) > instance.value(b);
  });

  TablePrinter table({"car", "price", "Exp. 1", "Exp. 2"});
  for (size_t i = 0; i < 19 && i < by_rank.size(); ++i) {
    const ElementId e = by_rank[i];
    const Car& car = sampled->cars()[static_cast<size_t>(e)];
    auto fmt = [&](const ExperimentOutcome& exp) -> std::string {
      auto it = exp.final_positions.find(e);
      return it == exp.final_positions.end() ? "-" : FormatInt(it->second);
    };
    std::string price = "$";
    price += FormatInt(static_cast<int64_t>(car.price));
    table.AddRow({std::to_string(car.year) + " " + car.make + " " + car.model,
                  std::move(price), fmt(exp1), fmt(exp2)});
  }
  bench::EmitTable(table, flags,
                   "Final-round position of the true top-19 cars ('-' = "
                   "eliminated in phase 1)");

  const ElementId best = instance.MaxElement();
  auto report = [&](const char* name, const ExperimentOutcome& exp) {
    std::cout << name << ": top car reached final round = "
              << (exp.final_positions.count(best) ? "yes" : "NO")
              << "; simulated experts picked the top car = "
              << (exp.simulated_expert_pick == best ? "yes" : "NO")
              << "; a true expert on the same candidates picks it = "
              << (exp.true_expert_pick == best ? "yes" : "NO") << "\n";
  };
  std::cout << "\n";
  report("Exp. 1", exp1);
  report("Exp. 2", exp2);
  std::cout << "Paper: the top car always reached the final round, but "
               "simulated experts (7 naive\nvotes) failed to identify it — "
               "real expertise is required in the CARS regime.\n";

  ReportCrossPhaseDedup(instance, u_n, seed + 10);

  // Companion statistic: naive-only 2-MaxFind, 14 runs; paper reports the
  // true maximum was returned in none of them.
  int correct = 0;
  std::map<int64_t, int> returned_rank_histogram;
  for (int64_t r = 0; r < runs_2mf; ++r) {
    PersistentBiasComparator crowd_model(&instance, CarsWorkerModel(),
                                         seed + 100 + static_cast<uint64_t>(r));
    PlatformOptions platform_options;
    platform_options.num_workers = 50;
    platform_options.spammer_fraction = 0.08;
    platform_options.seed = seed + 200 + static_cast<uint64_t>(r);
    auto platform =
        CrowdPlatform::Create(&crowd_model, &instance, {}, platform_options);
    CROWDMAX_CHECK(platform.ok());
    // Each 2-MaxFind comparison aggregates 7 worker answers — still not
    // enough in the CARS regime, where the crowd's bias is persistent.
    const std::unique_ptr<PlatformComparator> naive =
        PlatformComparator::Create(platform->get(), 7).value();
    Result<MaxFindResult> result =
        TwoMaxFind(instance.AllElements(), naive.get());
    CROWDMAX_CHECK(result.ok());
    if (result->best == instance.MaxElement()) ++correct;
    ++returned_rank_histogram[instance.Rank(result->best)];
  }
  std::cout << "\nNaive-only 2-MaxFind: " << correct << "/" << runs_2mf
            << " runs returned the most expensive car (paper: 0/14).\n"
            << "Rank histogram of returned cars:";
  for (const auto& [rank, count] : returned_rank_histogram) {
    std::cout << " rank" << rank << "x" << count;
  }
  std::cout << "\n";
  return 0;
}
