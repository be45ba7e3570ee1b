// The four workloads of the end-to-end benchmark (BENCHMARK.json says why
// each was chosen). A workload generates every input from the seed before
// any timing starts, runs for the requested seconds, checks every answer
// and returns its metric values by name; run.py adds their units.

#ifndef CROWDMAX_E2EBENCH_WORKLOADS_H_
#define CROWDMAX_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "report.h"

namespace e2e {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_path;
};

/// Metric values by name. End-to-end runs fill every end-to-end metric;
/// traced runs fill the per-layer metrics the workload measures (run.py
/// reports the rest as 0).
using Metrics = std::map<std::string, double>;

/// Median of several set-ups is reported as setup_s; a run repeats its
/// set-up this many times.
inline constexpr int kSetupRepeats = 5;

/// `sweep` (threads 0) and `sweep_parallel` (threads 4).
Metrics RunSweep(const RunArgs& args, int64_t threads, Report* report);

/// `service_cpu` (crowd == false) and `service_crowd` (crowd == true).
Metrics RunService(const RunArgs& args, bool crowd, Report* report);

}  // namespace e2e

#endif  // CROWDMAX_E2EBENCH_WORKLOADS_H_
