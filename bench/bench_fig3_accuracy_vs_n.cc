// Reproduces Figure 3: average true rank of the returned element as a
// function of the dataset size n, for Algorithm 1, 2-MaxFind-naive and
// 2-MaxFind-expert, at (u_n, u_e) = (10, 5) and (50, 10).
//
// Expected shape (paper): 2-MaxFind-expert is best, Algorithm 1 follows
// closely, 2-MaxFind-naive returns much lower-ranked elements, and the gap
// widens as u_n grows.
//
// Flags: --trials (default 25), --seed, --csv.

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "core/expert_max.h"
#include "core/maxfind.h"
#include "core/worker_model.h"

namespace crowdmax {
namespace {

constexpr int64_t kSizes[] = {1000, 2000, 3000, 4000, 5000};

struct Config {
  int64_t u_n;
  int64_t u_e;
};

void RunConfig(const Config& config, int64_t trials, uint64_t seed,
               const FlagParser& flags) {
  TablePrinter table({"n", "Alg 1", "2-MaxFind-naive", "2-MaxFind-expert"});
  for (int64_t n : kSizes) {
    double rank_alg1 = 0.0;
    double rank_naive = 0.0;
    double rank_expert = 0.0;
    for (int64_t t = 0; t < trials; ++t) {
      const uint64_t trial_seed =
          seed + static_cast<uint64_t>(n) * 131 + static_cast<uint64_t>(t);
      bench::TwoClassSetup setup =
          bench::MakeTwoClassSetup(n, config.u_n, config.u_e, trial_seed);

      ThresholdComparator naive(&setup.instance,
                                ThresholdModel{setup.delta_n, 0.0},
                                trial_seed * 3 + 1);
      ThresholdComparator expert(&setup.instance,
                                 ThresholdModel{setup.delta_e, 0.0},
                                 trial_seed * 3 + 2);

      ExpertMaxOptions options;
      options.filter.u_n = setup.u_n;
      Result<ExpertMaxResult> alg1 = FindMaxWithExperts(
          setup.instance.AllElements(), &naive, &expert, options);
      Result<MaxFindResult> naive_only =
          TwoMaxFind(setup.instance.AllElements(), &naive);
      Result<MaxFindResult> expert_only =
          TwoMaxFind(setup.instance.AllElements(), &expert);
      CROWDMAX_CHECK(alg1.ok() && naive_only.ok() && expert_only.ok());

      rank_alg1 += static_cast<double>(setup.instance.Rank(alg1->best));
      rank_naive += static_cast<double>(setup.instance.Rank(naive_only->best));
      rank_expert +=
          static_cast<double>(setup.instance.Rank(expert_only->best));
    }
    const double d = static_cast<double>(trials);
    table.AddRow({FormatInt(n), FormatDouble(rank_alg1 / d, 2),
                  FormatDouble(rank_naive / d, 2),
                  FormatDouble(rank_expert / d, 2)});
  }
  bench::EmitTable(
      table, flags,
      "Figure 3 (u_n=" + std::to_string(config.u_n) +
          ", u_e=" + std::to_string(config.u_e) +
          "): average true rank of the returned element (1 = perfect)");
}

}  // namespace
}  // namespace crowdmax

int main(int argc, char** argv) {
  using namespace crowdmax;
  FlagParser flags = bench::ParseFlagsOrDie(argc, argv);
  bench::MetricsSession metrics_session(flags);
  const int64_t trials = flags.GetInt("trials", 25);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  bench::PrintHeader("Figure 3", "accuracy (average true rank) vs n");
  RunConfig({10, 5}, trials, seed, flags);
  RunConfig({50, 10}, trials, seed + 1, flags);
  std::cout << "\nExpected shape: expert-only best, Alg 1 close behind, "
               "naive-only much worse and\ndegrading with larger u_n.\n";
  return 0;
}
