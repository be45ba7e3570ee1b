// Reproduces Figure 4: number of naive and expert comparisons as a function
// of n (log-scale y in the paper), in the average case (measured on random
// instances) and the worst case. Following the paper, worst-case counts for
// Algorithm 1 use the theoretical upper bounds (4*n*u_n naive,
// 2*(2*u_n-1)^{3/2} expert: "for our algorithm we considered the upper
// bound predicted by the theory"), while 2-MaxFind worst cases are measured
// on the adversarial packed instances.
//
// Flags: --trials (default 15), --seed, --csv, --threads (0 = serial
// filter phase; >= 1 runs each round's group tournaments on the parallel
// engine — same comparison counts for any thread count >= 1).

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

constexpr int64_t kSizes[] = {1000, 2000, 3000, 4000, 5000};

struct Config {
  int64_t u_n;
  int64_t u_e;
};

// Measured worst case of 2-MaxFind: packed instance (everything
// indistinguishable) plus the pivot-loses adversary.
int64_t TwoMaxFindAdversarialComparisons(int64_t n, uint64_t seed) {
  Result<Instance> packed = PackedInstance(n, seed);
  CROWDMAX_CHECK(packed.ok());
  AdversarialComparator adversary(&*packed, /*delta=*/1.0,
                                  AdversarialPolicy::kFirstLoses);
  Result<MaxFindResult> result =
      TwoMaxFind(packed->AllElements(), &adversary);
  CROWDMAX_CHECK(result.ok());
  return result->paid_comparisons;
}

void RunConfig(const Config& config, int64_t trials, uint64_t seed,
               int64_t threads, const FlagParser& flags) {
  TablePrinter table({"n", "Alg1-naive(avg)", "Alg1-naive(wc)",
                      "Alg1-expert(avg)", "Alg1-expert(wc)",
                      "2MF-naive/expert(avg)", "2MF(wc,adversarial)"});
  for (int64_t n : kSizes) {
    double alg1_naive = 0.0;
    double alg1_expert = 0.0;
    double single_class = 0.0;
    for (int64_t t = 0; t < trials; ++t) {
      const uint64_t trial_seed =
          seed + static_cast<uint64_t>(n) * 977 + static_cast<uint64_t>(t);
      bench::TwoClassSetup setup =
          bench::MakeTwoClassSetup(n, config.u_n, config.u_e, trial_seed);
      ThresholdComparator naive(&setup.instance,
                                ThresholdModel{setup.delta_n, 0.0},
                                trial_seed * 5 + 1);
      ThresholdComparator expert(&setup.instance,
                                 ThresholdModel{setup.delta_e, 0.0},
                                 trial_seed * 5 + 2);

      ExpertMaxOptions options;
      options.filter.u_n = setup.u_n;
      options.filter.threads = threads;
      Result<ExpertMaxResult> alg1 = FindMaxWithExperts(
          setup.instance.AllElements(), &naive, &expert, options);
      Result<MaxFindResult> expert_only =
          TwoMaxFind(setup.instance.AllElements(), &expert);
      CROWDMAX_CHECK(alg1.ok() && expert_only.ok());

      alg1_naive += static_cast<double>(alg1->paid.naive);
      alg1_expert += static_cast<double>(alg1->paid.expert);
      // The paper plots a single curve for the (near-identical) average
      // comparison counts of 2-MaxFind-naive and 2-MaxFind-expert.
      single_class += static_cast<double>(expert_only->paid_comparisons);
    }
    const double d = static_cast<double>(trials);
    const int64_t wc_2mf =
        TwoMaxFindAdversarialComparisons(n, seed + static_cast<uint64_t>(n));
    table.AddRow(
        {FormatInt(n), FormatDouble(alg1_naive / d, 0),
         FormatInt(FilterComparisonUpperBound(n, config.u_n)),
         FormatDouble(alg1_expert / d, 0),
         FormatInt(TwoMaxFindComparisonUpperBound(2 * config.u_n - 1)),
         FormatDouble(single_class / d, 0), FormatInt(wc_2mf)});
  }
  bench::EmitTable(table, flags,
                   "Figure 4 (u_n=" + std::to_string(config.u_n) +
                       ", u_e=" + std::to_string(config.u_e) +
                       "): comparison counts vs n (log scale in the paper)");
}

}  // namespace
}  // namespace crowdmax

int main(int argc, char** argv) {
  using namespace crowdmax;
  FlagParser flags = bench::ParseFlagsOrDie(argc, argv);
  bench::MetricsSession metrics_session(flags);
  const int64_t trials = flags.GetInt("trials", 15);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int64_t threads = bench::ThreadsFlag(flags);

  bench::PrintHeader("Figure 4", "naive and expert comparisons vs n");
  RunConfig({10, 5}, trials, seed, threads, flags);
  RunConfig({50, 10}, trials, seed + 1, threads, flags);
  std::cout << "\nExpected shape: Alg 1's expert comparisons stay flat in n "
               "(they depend only on u_n);\nits naive comparisons grow "
               "linearly and exceed the single-class counts; 2-MaxFind\ngrows "
               "like n^1.5 in the worst case.\n";
  return 0;
}
