// Chaos-harness bench: what an outage actually costs a deployment, and
// what crash-safety costs a run.
//
// Part 1 drives the same multi-tenant workload through the
// ServiceSupervisor twice — once healthy, once under a chaos plan with a
// mid-run service outage window plus random per-query kills — and reports
// queries completed / shed / killed / recovered and the p99 latency of
// executed queries in both regimes. Killed queries recover by
// deterministic re-execution, so the interesting number is how much of the
// workload still completes and what the recovery re-runs do to tail
// latency.
//
// Part 2 measures the checkpoint tax: the same filter run with no
// CheckpointController, with snapshots at every round boundary, and with
// snapshots every 2nd boundary, reporting wall time per run and the
// snapshot size. This is the overhead a deployment pays for the
// kill-and-resume guarantee tests/chaos_test.cc pins.
//
// The machine-readable twin goes to BENCH_chaos.json (override with
// --out).
//
// Flags:
//   --queries=N    supervised workload size (default 240)
//   --repeats=R    checkpoint-overhead timing repetitions (default 30)
//   --smoke        32-query CI smoke run (skips the JSON artifact)
//   --out=PATH     JSON artifact path (default BENCH_chaos.json)

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/checkpoint.h"
#include "core/filter_phase.h"
#include "core/round_engine.h"
#include "core/worker_model.h"
#include "query/supervisor.h"

namespace crowdmax {
namespace {

int64_t Percentile(std::vector<int64_t> sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

int64_t ExecutedP99(const SupervisedRunResult& run) {
  std::vector<int64_t> latencies;
  for (const SupervisedOutcome& sup : run.outcomes) {
    if (sup.outcome.admitted) latencies.push_back(sup.outcome.latency_micros);
  }
  std::sort(latencies.begin(), latencies.end());
  return Percentile(latencies, 0.99);
}

struct CheckpointTiming {
  int64_t micros_per_run = 0;
  int64_t snapshots = 0;
  int64_t snapshot_bytes = 0;
};

// Times `repeats` fresh filter runs over `instance`, checkpointing every
// `cadence` boundaries (0 = no controller attached at all).
CheckpointTiming TimeFilterRuns(const Instance& instance, int64_t repeats,
                                int64_t cadence) {
  std::vector<ElementId> items;
  for (int i = 0; i < instance.size(); ++i) items.push_back(i);
  FilterOptions options;
  options.u_n = 3;
  options.memoize = true;
  options.global_loss_counter = true;

  CheckpointTiming timing;
  const auto start = std::chrono::steady_clock::now();
  for (int64_t r = 0; r < repeats; ++r) {
    ThresholdComparator comparator(&instance, ThresholdModel{0.05, 0.1},
                                   /*seed=*/500 + static_cast<uint64_t>(r));
    std::unique_ptr<RoundEngine> engine =
        RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
    CheckpointController controller;
    if (cadence > 0) {
      controller.set_snapshot_every_rounds(cadence);
      engine->set_checkpoint(&controller);
    }
    Result<FilterResult> run =
        RunFilterOnEngine(items, options, engine.get());
    CROWDMAX_CHECK(run.ok());
    if (cadence > 0) {
      timing.snapshots += controller.snapshots_taken();
      if (controller.has_checkpoint()) {
        timing.snapshot_bytes =
            static_cast<int64_t>(controller.checkpoint().size());
      }
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  timing.micros_per_run =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count() /
      repeats;
  return timing;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n";
    return 1;
  }
  const bool smoke = flags.GetBool("smoke", false);
  const int64_t queries =
      smoke ? 32 : flags.GetBoundedInt("queries", 240, 8, 100000);
  const int64_t repeats =
      smoke ? 5 : flags.GetBoundedInt("repeats", 30, 1, 10000);
  const std::string out_path = flags.GetString("out", "BENCH_chaos.json");

  bench::PrintHeader(
      "BENCH_chaos",
      "outage recovery under the service supervisor + checkpoint overhead");

  // Two shards of the paper's standard simulation input, platform mode
  // with mild faults — the regime where recovery machinery earns its keep.
  std::vector<bench::TwoClassSetup> setups;
  for (int64_t s = 0; s < 2; ++s) {
    setups.push_back(bench::MakeTwoClassSetup(
        60 + 20 * s, 3, 1, 700 + static_cast<uint64_t>(s)));
  }
  SupervisorOptions options;
  for (const bench::TwoClassSetup& setup : setups) {
    options.service.shards.push_back(
        {&setup.instance, setup.delta_n, setup.delta_e});
  }
  options.service.use_platform = true;
  options.service.platform_workers = 30;
  options.service.naive_votes = 3;
  options.service.expert_votes = 5;
  options.service.fault.abandon_probability = 0.03;
  options.service.fault.min_quorum = 2;
  options.service.resilient.max_retries = 3;

  std::vector<QuerySpec> specs;
  specs.reserve(static_cast<size_t>(queries));
  for (int64_t i = 0; i < queries; ++i) {
    QuerySpec spec;
    spec.tenant = "tenant" + std::to_string(i);
    spec.shard = i % 2;
    spec.kind = QueryKind::kMax;
    spec.u_n = 2 + i % 3;
    spec.seed = 40000 + static_cast<uint64_t>(i) * 71;
    spec.weight = 1 + i % 3;
    specs.push_back(spec);
  }

  // Healthy run: supervisor attached, chaos plan empty.
  Result<ServiceSupervisor> healthy = ServiceSupervisor::Create(options);
  CROWDMAX_CHECK(healthy.ok());
  Result<SupervisedRunResult> baseline = healthy->Run(specs);
  CROWDMAX_CHECK(baseline.ok());
  const int64_t baseline_p99 = ExecutedP99(*baseline);

  // Chaos run: a mid-run outage window sheds 1/8 of the workload and a
  // quarter of the surviving queries are killed mid-run and recovered by
  // re-execution.
  SupervisorOptions chaos_options = options;
  chaos_options.chaos.seed = 2026;
  chaos_options.chaos.kill_query_probability = 0.25;
  chaos_options.chaos.min_kill_step = 1;
  chaos_options.chaos.max_kill_step = 3;
  chaos_options.chaos.max_restarts = 1;
  chaos_options.chaos.outage_start = queries / 4;
  chaos_options.chaos.outage_queries = queries / 8;
  Result<ServiceSupervisor> chaotic = ServiceSupervisor::Create(chaos_options);
  CROWDMAX_CHECK(chaotic.ok());
  Result<SupervisedRunResult> outage = chaotic->Run(specs);
  CROWDMAX_CHECK(outage.ok());
  const int64_t outage_p99 = ExecutedP99(*outage);

  TablePrinter service_table(
      {"regime", "submitted", "completed", "shed", "killed", "recovered",
       "p99_us"});
  service_table.AddRow(
      {"healthy", std::to_string(baseline->report.submitted),
       std::to_string(baseline->report.completed), "0", "0", "0",
       std::to_string(baseline_p99)});
  service_table.AddRow(
      {"outage+kills", std::to_string(outage->report.submitted),
       std::to_string(outage->report.completed),
       std::to_string(outage->report.shed_outage + outage->report.shed_load +
                      outage->report.shed_breaker),
       std::to_string(outage->report.killed),
       std::to_string(outage->report.recovered),
       std::to_string(outage_p99)});
  bench::EmitTable(service_table, flags,
                   "Supervised workload, healthy vs mid-run outage");

  // Checkpoint overhead: the same run bare, snapshotting every boundary,
  // and snapshotting every 2nd boundary. A larger instance than the
  // supervised shards so the filter runs enough rounds for the cadences to
  // differ (the round count grows with n).
  const bench::TwoClassSetup timing_setup =
      bench::MakeTwoClassSetup(smoke ? 120 : 400, 3, 1, 900);
  const Instance& timing_instance = timing_setup.instance;
  const CheckpointTiming bare = TimeFilterRuns(timing_instance, repeats, 0);
  const CheckpointTiming every1 = TimeFilterRuns(timing_instance, repeats, 1);
  const CheckpointTiming every2 = TimeFilterRuns(timing_instance, repeats, 2);
  auto overhead_pct = [&bare](const CheckpointTiming& t) {
    if (bare.micros_per_run <= 0) return 0.0;
    return 100.0 *
           static_cast<double>(t.micros_per_run - bare.micros_per_run) /
           static_cast<double>(bare.micros_per_run);
  };

  TablePrinter ckpt_table({"cadence", "us_per_run", "overhead_pct",
                           "snapshots_per_run", "snapshot_bytes"});
  ckpt_table.AddRow({"off", std::to_string(bare.micros_per_run), "0.0", "0",
                     "0"});
  ckpt_table.AddRow({"every_round", std::to_string(every1.micros_per_run),
                     std::to_string(overhead_pct(every1)),
                     std::to_string(every1.snapshots / repeats),
                     std::to_string(every1.snapshot_bytes)});
  ckpt_table.AddRow({"every_2_rounds", std::to_string(every2.micros_per_run),
                     std::to_string(overhead_pct(every2)),
                     std::to_string(every2.snapshots / repeats),
                     std::to_string(every2.snapshot_bytes)});
  bench::EmitTable(ckpt_table, flags,
                   "Checkpoint overhead (serial filter, n=" +
                       std::to_string(timing_instance.size()) + ", " +
                       std::to_string(repeats) + " runs per cadence)");

  if (smoke) {
    // CI smoke contract: kills recovered, sheds typed, nothing hung.
    CROWDMAX_CHECK(outage->report.killed > 0);
    CROWDMAX_CHECK(outage->report.recovered == outage->report.killed);
    CROWDMAX_CHECK(outage->report.shed_outage > 0);
    for (const SupervisedOutcome& sup : outage->outcomes) {
      if (sup.shed_load || sup.shed_breaker) {
        CROWDMAX_CHECK(sup.outcome.status.code() == StatusCode::kUnavailable);
        CROWDMAX_CHECK(sup.outcome.status.retry_after_steps() > 0);
      }
    }
    std::cout << "\nsmoke: OK (" << outage->report.completed << " completed, "
              << outage->report.killed << " killed, "
              << outage->report.recovered << " recovered, "
              << outage->report.shed_outage << " shed)\n";
    return 0;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out << "{\"bench\": \"chaos_recovery\", \"queries\": " << queries
      << ", \"healthy\": {\"completed\": " << baseline->report.completed
      << ", \"p99_micros\": " << baseline_p99 << "}"
      << ", \"outage\": {\"completed\": " << outage->report.completed
      << ", \"shed_outage\": " << outage->report.shed_outage
      << ", \"shed_load\": " << outage->report.shed_load
      << ", \"killed\": " << outage->report.killed
      << ", \"recovered\": " << outage->report.recovered
      << ", \"unrecovered\": " << outage->report.unrecovered
      << ", \"p99_micros\": " << outage_p99 << "}"
      << ", \"checkpoint\": {\"repeats\": " << repeats
      << ", \"bare_micros_per_run\": " << bare.micros_per_run
      << ", \"every_round_micros_per_run\": " << every1.micros_per_run
      << ", \"every_2_micros_per_run\": " << every2.micros_per_run
      << ", \"snapshots_per_run\": " << every1.snapshots / repeats
      << ", \"snapshot_bytes\": " << every1.snapshot_bytes << "}}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace crowdmax

int main(int argc, char** argv) { return crowdmax::Main(argc, argv); }
