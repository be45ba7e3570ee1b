// Logical-step (latency) comparison of the max-finding algorithms
// (Section 3's time model, after Venetis et al.: one logical step = one
// batch of comparisons posted to the platform and answered).
//
// Monetary cost counts comparisons; *latency* counts logical steps. The
// two-phase algorithm is not only cheap when experts are pricey — it is
// also fast: Algorithm 2 runs in O(log n) steps and the expert phase in
// O(sqrt(u_n)) steps, while single-class 2-MaxFind needs O(sqrt(n)) steps
// on the whole input.
//
// Flags: --trials (default 10), --seed, --csv.

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/expert_max.h"
#include "core/maxfind.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

constexpr int64_t kSizes[] = {1000, 2000, 4000, 8000};

// Worst-case logical steps of batched 2-MaxFind: packed instance, pivot
// forced to lose every hard comparison.
int64_t TwoMaxFindWorstCaseSteps(int64_t n, uint64_t seed) {
  Result<Instance> packed = PackedInstance(n, seed);
  CROWDMAX_CHECK(packed.ok());
  AdversarialComparator adversary(&*packed, /*delta=*/1.0,
                                  AdversarialPolicy::kFirstLoses);
  ComparatorBatchExecutor executor(&adversary);
  Result<MaxFindResult> result =
      TwoMaxFind(packed->AllElements(), &executor);
  CROWDMAX_CHECK(result.ok());
  return result->logical_steps;
}

}  // namespace
}  // namespace crowdmax

int main(int argc, char** argv) {
  using namespace crowdmax;
  FlagParser flags = bench::ParseFlagsOrDie(argc, argv);
  bench::MetricsSession metrics_session(flags);
  const int64_t trials = flags.GetInt("trials", 10);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  bench::PrintHeader("Logical steps",
                     "latency of the algorithms in platform round-trips");

  TablePrinter table({"n", "Alg1 naive steps", "Alg1 expert steps",
                      "Alg1 total", "2-MaxFind steps (avg)",
                      "2-MaxFind steps (wc)"});
  for (int64_t n : kSizes) {
    double alg1_naive = 0.0;
    double alg1_expert = 0.0;
    double single = 0.0;
    for (int64_t t = 0; t < trials; ++t) {
      const uint64_t trial_seed =
          seed + static_cast<uint64_t>(n) * 59 + static_cast<uint64_t>(t);
      bench::TwoClassSetup setup =
          bench::MakeTwoClassSetup(n, 10, 5, trial_seed);
      ThresholdComparator naive(&setup.instance,
                                ThresholdModel{setup.delta_n, 0.0},
                                trial_seed + 1);
      ThresholdComparator expert(&setup.instance,
                                 ThresholdModel{setup.delta_e, 0.0},
                                 trial_seed + 2);
      ComparatorBatchExecutor naive_exec(&naive);
      ComparatorBatchExecutor expert_exec(&expert);

      ExpertMaxOptions options;
      options.filter.u_n = setup.u_n;
      Result<ExpertMaxResult> alg1 = FindMaxWithExperts(
          setup.instance.AllElements(), &naive_exec, &expert_exec, options);
      CROWDMAX_CHECK(alg1.ok());
      alg1_naive += static_cast<double>(alg1->naive_steps);
      alg1_expert += static_cast<double>(alg1->expert_steps);

      ThresholdComparator single_worker(&setup.instance,
                                        ThresholdModel{setup.delta_e, 0.0},
                                        trial_seed + 3);
      ComparatorBatchExecutor single_exec(&single_worker);
      Result<MaxFindResult> two_mf =
          TwoMaxFind(setup.instance.AllElements(), &single_exec);
      CROWDMAX_CHECK(two_mf.ok());
      single += static_cast<double>(two_mf->logical_steps);
    }
    const double d = static_cast<double>(trials);
    table.AddRow(
        {FormatInt(n), FormatDouble(alg1_naive / d, 1),
         FormatDouble(alg1_expert / d, 1),
         FormatDouble((alg1_naive + alg1_expert) / d, 1),
         FormatDouble(single / d, 1),
         FormatInt(TwoMaxFindWorstCaseSteps(n, seed + static_cast<uint64_t>(n)))});
  }
  bench::EmitTable(table, flags,
                   "Logical steps (u_n=10, u_e=5); Alg 1 phase 1 is "
                   "O(log n); 2-MaxFind is fast on random inputs but needs "
                   "Theta(sqrt(n)) rounds in the worst case");
  std::cout << "\nExpected shape: Alg 1's total steps grow logarithmically "
               "with n and its worst case\nmatches its average; 2-MaxFind "
               "averages a couple of rounds on random inputs but its\n"
               "adversarial step count grows like sqrt(n).\n";
  return 0;
}
