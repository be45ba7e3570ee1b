// Budget planner: given the expert/naive price ratio of your platform,
// which strategy should you buy — Algorithm 1 or single-class 2-MaxFind?
//
// Section 5.1's rule of thumb is "ratio below ~10: just use experts;
// above: the two-phase algorithm wins". This example measures the actual
// crossover on your instance size by simulating both strategies across a
// range of ratios and printing the cheaper accurate option per ratio.
//
//   ./examples/budget_planner [--n=2000] [--u_n=20] [--trials=10] [--seed=42]

#include <iostream>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "core/cost.h"
#include "core/expert_max.h"
#include "core/maxfind.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

int main(int argc, char** argv) {
  using namespace crowdmax;

  FlagParser flags;
  if (Status status = flags.Parse(argc, argv); !status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 2;
  }
  const int64_t n = flags.GetInt("n", 2000);
  const int64_t u_target = flags.GetInt("u_n", 20);
  const int64_t trials = flags.GetInt("trials", 10);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  // Measure average comparison counts for both accurate strategies (the
  // naive-only baseline is cheap but inaccurate, so it is not a
  // contender; see bench_fig3).
  double alg1_naive_cmp = 0.0;
  double alg1_expert_cmp = 0.0;
  double expert_only_cmp = 0.0;
  for (int64_t t = 0; t < trials; ++t) {
    const uint64_t trial_seed = seed + static_cast<uint64_t>(t);
    Result<Instance> instance = UniformInstance(n, trial_seed);
    if (!instance.ok()) {
      std::cerr << instance.status().ToString() << "\n";
      return 1;
    }
    const double delta_n = instance->DeltaForU(u_target);
    const double delta_e = instance->DeltaForU(3);
    ThresholdComparator naive(&*instance, ThresholdModel{delta_n, 0.0},
                              trial_seed + 1);
    ThresholdComparator expert(&*instance, ThresholdModel{delta_e, 0.0},
                               trial_seed + 2);

    ExpertMaxOptions options;
    options.filter.u_n = instance->CountWithin(delta_n);
    Result<ExpertMaxResult> alg1 =
        FindMaxWithExperts(instance->AllElements(), &naive, &expert, options);
    Result<MaxFindResult> expert_only =
        TwoMaxFind(instance->AllElements(), &expert);
    if (!alg1.ok() || !expert_only.ok()) {
      std::cerr << "simulation failed\n";
      return 1;
    }
    alg1_naive_cmp += static_cast<double>(alg1->paid.naive);
    alg1_expert_cmp += static_cast<double>(alg1->paid.expert);
    expert_only_cmp += static_cast<double>(expert_only->paid_comparisons);
  }
  alg1_naive_cmp /= static_cast<double>(trials);
  alg1_expert_cmp /= static_cast<double>(trials);
  expert_only_cmp /= static_cast<double>(trials);

  std::cout << "Budget planner for n=" << n << ", u_n~" << u_target << "\n"
            << "  Algorithm 1      : " << alg1_naive_cmp << " naive + "
            << alg1_expert_cmp << " expert comparisons\n"
            << "  2-MaxFind-expert : " << expert_only_cmp
            << " expert comparisons\n\n";

  TablePrinter table({"c_e/c_n ratio", "Alg 1 cost", "expert-only cost",
                      "cheaper accurate option"});
  double crossover = -1.0;
  for (double ratio : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0}) {
    CostModel model{1.0, ratio};
    const double alg1_cost =
        alg1_naive_cmp * model.naive_cost + alg1_expert_cmp * model.expert_cost;
    const double expert_cost = expert_only_cmp * model.expert_cost;
    if (crossover < 0.0 && alg1_cost < expert_cost) crossover = ratio;
    table.AddRow({FormatDouble(ratio, 0), FormatDouble(alg1_cost, 0),
                  FormatDouble(expert_cost, 0),
                  alg1_cost < expert_cost ? "Algorithm 1" : "expert-only"});
  }
  table.Print(std::cout);

  // The exact break-even ratio from the measured counts:
  //   alg1_naive + r * alg1_expert = r * expert_only
  //   => r = alg1_naive / (expert_only - alg1_expert).
  if (expert_only_cmp > alg1_expert_cmp) {
    std::cout << "\nMeasured break-even ratio: "
              << alg1_naive_cmp / (expert_only_cmp - alg1_expert_cmp)
              << " (paper's rule of thumb: ~10)\n";
  }
  return 0;
}
