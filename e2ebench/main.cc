// End-to-end benchmark of crowdmax.
//
//   e2e_bench --workload <sweep|sweep_parallel|service_cpu|service_crowd>
//             --seed <n> --seconds <s> --trace <0|1> [--trace_out <file>]
//
// Drives the library only through its public entry points
// (FindMaxWithExperts; QueryService::Create/Run), checks every answer, and
// prints the run context and as the last line of standard output one JSON
// object with the metric values by name:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced run
// and reports the per-layer metrics the workload measures. run.py checks
// the names against BENCHMARK.json, which holds their units. Exits 1 on any
// correctness violation, 2 on bad arguments.

#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "report.h"
#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

int Usage(const std::string& problem) {
  std::cerr << "e2e_bench: " << problem << "\n"
            << "usage: e2e_bench --workload <sweep|sweep_parallel|"
               "service_cpu|service_crowd> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace_out <file>]\n";
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

int Main(int argc, char** argv) {
  RunArgs args;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
      seen_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &number)) return Usage("bad --seed " + value);
      args.seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number < 1 || number > 3600) {
        return Usage("bad --seconds " + value);
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--trace_out") {
      args.trace_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!seen_workload) return Usage("--workload is required");

  Report report;
  report.Context("workload", args.workload);
  report.Context("seed", std::to_string(args.seed));
  report.Context("seconds", std::to_string(static_cast<int64_t>(args.seconds)));
  report.Context("mode", args.trace ? "traced (per-layer metrics)"
                                    : "untraced (end-to-end metrics)");
  report.Context("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.Context("build_type", E2E_BUILD_TYPE);
  report.Context("rng_backend",
                 crowdmax::RngBulkSimdActive() ? "avx2" : "scalar");

  Metrics metrics;
  if (args.workload == "sweep") {
    metrics = RunSweep(args, /*threads=*/0, &report);
  } else if (args.workload == "sweep_parallel") {
    metrics = RunSweep(args, /*threads=*/4, &report);
  } else if (args.workload == "service_cpu") {
    metrics = RunService(args, /*crowd=*/false, &report);
  } else if (args.workload == "service_crowd") {
    metrics = RunService(args, /*crowd=*/true, &report);
  } else {
    return Usage("unknown workload " + args.workload);
  }

  for (const auto& [name, value] : metrics) report.Metric(name, value);
  report.Print(std::cout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
