// Google-benchmark microbenchmarks for the core primitives: comparator
// throughput, all-play-all tournaments, Algorithm 2, 2-MaxFind, and the
// full two-phase pipeline. These quantify the simulator's raw speed (the
// paper's cost unit is worker comparisons, not CPU time, but a fast
// simulator is what makes the parameter sweeps in the other benches cheap).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/async_executor.h"
#include "core/batched.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/round_engine.h"
#include "core/tournament.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

// --threads=N (stripped from argv in main below) overrides the thread
// count of every BM_Parallel* benchmark; 0 keeps the per-benchmark Args.
int64_t g_threads_override = 0;

// Thread count for a parallel benchmark: the --threads override if given,
// else the benchmark's registered argument.
int64_t BenchThreads(const benchmark::State& state, int arg_index) {
  return g_threads_override > 0 ? g_threads_override
                                : state.range(arg_index);
}

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

void BM_ThresholdCompare(benchmark::State& state) {
  Instance instance = MakeInstance(1024, 1);
  ThresholdComparator cmp(&instance, ThresholdModel{0.01, 0.05}, 2);
  ElementId a = 0;
  for (auto _ : state) {
    const ElementId winner = cmp.Compare(a, (a + 1) & 1023);
    benchmark::DoNotOptimize(winner);
    a = (a + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThresholdCompare);

void BM_OracleCompare(benchmark::State& state) {
  Instance instance = MakeInstance(1024, 3);
  OracleComparator cmp(&instance);
  ElementId a = 0;
  for (auto _ : state) {
    const ElementId winner = cmp.Compare(a, (a + 1) & 1023);
    benchmark::DoNotOptimize(winner);
    a = (a + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleCompare);

void BM_AllPlayAll(benchmark::State& state) {
  const int64_t k = state.range(0);
  Instance instance = MakeInstance(k, 7);
  ThresholdComparator cmp(&instance, ThresholdModel{0.01, 0.0}, 8);
  const std::vector<ElementId> elements = instance.AllElements();
  for (auto _ : state) {
    Result<TournamentResult> result = AllPlayAll(elements, &cmp);
    benchmark::DoNotOptimize(result->wins.data());
  }
  state.SetItemsProcessed(state.iterations() * k * (k - 1) / 2);
}
BENCHMARK(BM_AllPlayAll)->Arg(16)->Arg(64)->Arg(256);

void BM_FilterPhase(benchmark::State& state) {
  const int64_t n = state.range(0);
  Instance instance = MakeInstance(n, 9);
  const double delta = instance.DeltaForU(10);
  FilterOptions options;
  options.u_n = instance.CountWithin(delta);
  for (auto _ : state) {
    state.PauseTiming();
    ThresholdComparator cmp(&instance, ThresholdModel{delta, 0.0},
                            state.iterations());
    state.ResumeTiming();
    Result<FilterResult> result =
        FilterCandidates(instance.AllElements(), options, &cmp);
    CROWDMAX_CHECK(result.ok());
    benchmark::DoNotOptimize(result->candidates.data());
  }
}
BENCHMARK(BM_FilterPhase)->Arg(1000)->Arg(4000);

// Parallel filter phase: Args are {n, threads}. The paper's cost metric is
// worker comparisons (identical across thread counts by construction);
// this measures the simulator's wall-clock scaling. Sized at n >= 10^5 so
// each round has enough groups to occupy the pool.
void BM_ParallelFilterPhase(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t threads = BenchThreads(state, 1);
  Instance instance = MakeInstance(n, 15);
  const double delta = instance.DeltaForU(10);
  FilterOptions options;
  options.u_n = instance.CountWithin(delta);
  options.threads = threads;
  for (auto _ : state) {
    state.PauseTiming();
    ThresholdComparator cmp(&instance, ThresholdModel{delta, 0.0},
                            state.iterations());
    state.ResumeTiming();
    Result<FilterResult> result =
        FilterCandidates(instance.AllElements(), options, &cmp);
    CROWDMAX_CHECK(result.ok());
    benchmark::DoNotOptimize(result->candidates.data());
  }
  state.SetLabel("threads=" + std::to_string(threads));
}
BENCHMARK(BM_ParallelFilterPhase)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8})
    ->Unit(benchmark::kMillisecond);

// Parallel batched comparisons: Args are {num_tasks, threads}.
void BM_ParallelBatchExecutor(benchmark::State& state) {
  const int64_t num_tasks = state.range(0);
  const int64_t threads = BenchThreads(state, 1);
  Instance instance = MakeInstance(1024, 17);
  ThresholdComparator cmp(&instance, ThresholdModel{0.01, 0.0}, 19);
  Result<std::unique_ptr<ParallelBatchExecutor>> executor =
      ParallelBatchExecutor::Create(&cmp, threads, /*seed=*/21);
  CROWDMAX_CHECK(executor.ok());
  std::vector<ComparisonPair> tasks;
  tasks.reserve(static_cast<size_t>(num_tasks));
  for (int64_t i = 0; i < num_tasks; ++i) {
    const ElementId a = static_cast<ElementId>(i & 1023);
    const ElementId b = static_cast<ElementId>((i + 7) & 1023);
    tasks.emplace_back(a, b == a ? ((a + 1) & 1023) : b);
  }
  for (auto _ : state) {
    Result<std::vector<BatchTaskResult>> results =
        (*executor)->TryExecuteBatch(tasks);
    CROWDMAX_CHECK(results.ok());
    benchmark::DoNotOptimize(results->data());
  }
  state.SetItemsProcessed(state.iterations() * num_tasks);
  state.SetLabel("threads=" + std::to_string(threads));
}
BENCHMARK(BM_ParallelBatchExecutor)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({100000, 8});

void BM_TwoMaxFind(benchmark::State& state) {
  const int64_t n = state.range(0);
  Instance instance = MakeInstance(n, 11);
  const double delta = instance.DeltaForU(5);
  for (auto _ : state) {
    state.PauseTiming();
    ThresholdComparator cmp(&instance, ThresholdModel{delta, 0.0},
                            state.iterations());
    state.ResumeTiming();
    Result<MaxFindResult> result = TwoMaxFind(instance.AllElements(), &cmp);
    CROWDMAX_CHECK(result.ok());
    benchmark::DoNotOptimize(result->best);
  }
}
BENCHMARK(BM_TwoMaxFind)->Arg(100)->Arg(1000);

void BM_ExpertMaxEndToEnd(benchmark::State& state) {
  const int64_t n = state.range(0);
  Instance instance = MakeInstance(n, 13);
  const double delta_n = instance.DeltaForU(10);
  const double delta_e = instance.DeltaForU(3);
  ExpertMaxOptions options;
  options.filter.u_n = instance.CountWithin(delta_n);
  for (auto _ : state) {
    state.PauseTiming();
    ThresholdComparator naive(&instance, ThresholdModel{delta_n, 0.0},
                              state.iterations() * 2);
    ThresholdComparator expert(&instance, ThresholdModel{delta_e, 0.0},
                               state.iterations() * 2 + 1);
    state.ResumeTiming();
    Result<ExpertMaxResult> result =
        FindMaxWithExperts(instance.AllElements(), &naive, &expert, options);
    CROWDMAX_CHECK(result.ok());
    benchmark::DoNotOptimize(result->best);
  }
}
BENCHMARK(BM_ExpertMaxEndToEnd)->Arg(1000)->Arg(5000);

// ---------------------------------------------------------------------------
// Round-latency report v2 (--pipeline / --pipeline_json=FILE /
// --pipeline_smoke): wall clock per logical step over a latency-simulating
// platform, the synchronous executor drive against the pipelined drive,
// for every Phase-2 source the engine can overlap — the filter's disjoint
// groups, the speculating 2-MaxFind, the chunked expert tournament and the
// grouped randomized max-finder. Everything but the wall clock and the
// speculation counters is bit-identical across a source's rows (checked);
// what the table shows is purely how much crowd round-trip the pipeline
// hides and what speculation paid for it. The machine-readable twin goes
// to BENCH_pipeline.json.

struct PipelineLatencyRow {
  std::string source;
  std::string mode;
  int64_t depth = 0;
  double wall_ms = 0.0;
  int64_t logical_steps = 0;
  double ms_per_step = 0.0;
  int64_t paid = 0;
  int64_t wasted = 0;
  int64_t spec_hits = 0;
  int64_t spec_mispredicts = 0;
  double hit_rate = 0.0;
  double wasted_fraction = 0.0;
  int64_t overlapped_rounds = 0;
  int64_t max_in_flight = 0;
  double speedup = 1.0;
};

// What a source run must reproduce identically at every depth: the
// algorithm's output, its non-speculative spend, and its logical steps.
struct PipelineRunSignature {
  std::vector<int64_t> output;
  int64_t paid_sync = 0;  // engine paid minus speculation_wasted
  int64_t logical_steps = 0;
};

struct PipelineSourceSpec {
  std::string name;
  // Drives the source on `engine` and returns its identity signature.
  std::function<PipelineRunSignature(RoundEngine*)> run;
};

void RunPipelineLatencyReport(const std::string& json_path, bool smoke) {
  const int64_t filter_n = smoke ? 120 : 600;
  const int64_t filter_u = smoke ? 4 : 8;
  const int64_t twomax_n = smoke ? 60 : 400;
  const int64_t tourney_n = smoke ? 40 : 120;
  const int64_t tourney_chunk = smoke ? 60 : 300;
  const int64_t random_n = smoke ? 60 : 120;

  PlatformOptions platform_options;
  platform_options.num_workers = 32;
  platform_options.spammer_fraction = 0.0;
  platform_options.honest_slip_probability = 0.0;
  platform_options.gold_task_probability = 0.0;
  platform_options.seed = 27;
  platform_options.latency.base_micros = smoke ? 200 : 1500;
  platform_options.latency.per_task_micros = smoke ? 1 : 5;
  platform_options.latency.jitter_micros = smoke ? 40 : 300;
  platform_options.latency.seed = 29;

  // Group-granular rounds on BOTH sides of every source: the synchronous
  // baseline pays one round trip per group/chunk too, so the comparison
  // isolates overlap (not batch-size effects) and the drives stay
  // bit-identical.
  Instance filter_instance = MakeInstance(filter_n, 23);
  FilterOptions filter_options;
  filter_options.u_n = filter_u;
  filter_options.memoize = true;
  filter_options.pipeline_groups = true;

  Instance twomax_instance = MakeInstance(twomax_n, 31);
  // Prior-strength ordering (decreasing true value): the speculated pivot
  // — the lowest-indexed sample member — is the sample's true maximum, so
  // the predictions hit and the bench shows the hit path's latency win.
  std::vector<ElementId> twomax_items = twomax_instance.AllElements();
  std::sort(twomax_items.begin(), twomax_items.end(),
            [&](ElementId a, ElementId b) {
              return twomax_instance.value(a) > twomax_instance.value(b);
            });

  Instance tourney_instance = MakeInstance(tourney_n, 37);
  Instance random_instance = MakeInstance(random_n, 41);
  RandomizedMaxFindOptions random_options;
  random_options.seed = 5;
  random_options.group_size_override = 12;
  random_options.pipeline_groups = true;

  const std::vector<PipelineSourceSpec> sources = {
      {"filter",
       [&](RoundEngine* engine) {
         Result<FilterResult> run = RunFilterOnEngine(
             filter_instance.AllElements(), filter_options, engine);
         CROWDMAX_CHECK(run.ok() && !run->partial);
         PipelineRunSignature sig;
         sig.output.assign(run->candidates.begin(),
                           run->candidates.end());
         return sig;
       }},
      {"twomax_speculate",
       [&](RoundEngine* engine) {
         TwoMaxFindOptions options;
         options.speculate = true;  // sync drives ignore speculation
         Result<MaxFindResult> run =
             RunTwoMaxFindOnEngine(twomax_items, engine, options);
         CROWDMAX_CHECK(run.ok() && !run->partial);
         PipelineRunSignature sig;
         sig.output = {run->best, run->rounds,
                       run->paid_comparisons};
         return sig;
       }},
      {"tournament_chunked",
       [&](RoundEngine* engine) {
         TournamentEngineOptions options;
         options.chunk_pairs = tourney_chunk;
         Result<TournamentResult> run = RunTournamentOnEngine(
             tourney_instance.AllElements(), engine, options);
         CROWDMAX_CHECK(run.ok() && run->unresolved == 0);
         PipelineRunSignature sig;
         sig.output = run->wins;
         return sig;
       }},
      {"randomized_grouped",
       [&](RoundEngine* engine) {
         Result<MaxFindResult> run = RunRandomizedMaxFindOnEngine(
             random_instance.AllElements(), engine, random_options);
         CROWDMAX_CHECK(run.ok() && !run->partial);
         PipelineRunSignature sig;
         sig.output = {run->best, run->rounds,
                       run->paid_comparisons};
         return sig;
       }},
  };

  // One run per row, each over its own fresh platform so the latency and
  // answer streams replay identically; only the drive differs.
  auto run_row = [&](const PipelineSourceSpec& spec,
                     const Instance* instance, int64_t depth) {
    OracleComparator crowd(instance);
    auto platform =
        CrowdPlatform::Create(&crowd, instance, {}, platform_options);
    CROWDMAX_CHECK(platform.ok());
    auto executor =
        PlatformBatchExecutor::Create(platform->get(), /*votes_per_task=*/1);
    CROWDMAX_CHECK(executor.ok());

    PipelineLatencyRow row;
    row.source = spec.name;
    row.mode = depth == 0 ? "serial" : "pipelined";
    row.depth = depth;
    std::unique_ptr<AsyncBatchAdapter> async;
    if (depth > 0) {
      async = std::make_unique<AsyncBatchAdapter>(executor->get());
    }
    Result<std::unique_ptr<RoundEngine>> engine =
        depth == 0 ? RoundEngine::CreateBatched(executor->get(),
                                                /*memoize=*/true)
                   : RoundEngine::CreatePipelined(async.get(), depth,
                                                  /*memoize=*/true);
    CROWDMAX_CHECK(engine.ok());

    const auto start = std::chrono::steady_clock::now();
    PipelineRunSignature sig = spec.run(engine->get());
    const auto stop = std::chrono::steady_clock::now();

    row.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            stop - start)
            .count();
    row.logical_steps = (*engine)->logical_steps();
    row.ms_per_step =
        row.logical_steps > 0 ? row.wall_ms / row.logical_steps : 0.0;
    row.paid = (*engine)->paid();
    row.wasted = (*engine)->speculation_wasted();
    row.spec_hits = (*engine)->speculation_hits();
    row.spec_mispredicts = (*engine)->speculation_mispredicts();
    const int64_t resolved = row.spec_hits + row.spec_mispredicts;
    row.hit_rate = resolved > 0
                       ? static_cast<double>(row.spec_hits) / resolved
                       : 0.0;
    row.wasted_fraction =
        row.paid > 0 ? static_cast<double>(row.wasted) / row.paid : 0.0;
    row.overlapped_rounds = (*engine)->overlapped_rounds();
    row.max_in_flight = (*engine)->max_in_flight_observed();
    sig.paid_sync = row.paid - row.wasted;
    sig.logical_steps = row.logical_steps;
    return std::make_pair(row, sig);
  };

  const Instance* instances_per_source[] = {&filter_instance,
                                            &twomax_instance,
                                            &tourney_instance,
                                            &random_instance};

  std::cout << "\n[pipeline] round-latency v2: adaptive sources over "
            << "platform latency base="
            << platform_options.latency.base_micros
            << "us jitter=" << platform_options.latency.jitter_micros
            << "us\n";

  std::vector<PipelineLatencyRow> rows;
  const std::vector<int64_t> depths =
      smoke ? std::vector<int64_t>{0, 8} : std::vector<int64_t>{0, 1, 8};
  for (size_t s = 0; s < sources.size(); ++s) {
    PipelineRunSignature reference;
    double serial_wall = 0.0;
    for (const int64_t depth : depths) {
      auto [row, sig] = run_row(sources[s], instances_per_source[s], depth);
      if (depth == 0) {
        reference = sig;
        serial_wall = row.wall_ms;
      } else {
        // Bit-identity across depths: same output, same non-speculative
        // spend, same logical steps. Only wall clock and the speculation
        // counters may differ.
        CROWDMAX_CHECK(sig.output == reference.output);
        CROWDMAX_CHECK(sig.paid_sync == reference.paid_sync);
        CROWDMAX_CHECK(sig.logical_steps == reference.logical_steps);
      }
      row.speedup = depth == 0 ? 1.0 : serial_wall / row.wall_ms;
      rows.push_back(row);
    }
  }

  TablePrinter table({"source", "mode", "depth", "wall_ms", "steps",
                      "ms_per_step", "paid", "wasted", "hits", "mispredicts",
                      "hit_rate", "wasted_frac", "overlapped", "speedup"});
  for (const PipelineLatencyRow& row : rows) {
    table.AddRow({row.source, row.mode, FormatInt(row.depth),
                  FormatDouble(row.wall_ms, 2), FormatInt(row.logical_steps),
                  FormatDouble(row.ms_per_step, 3), FormatInt(row.paid),
                  FormatInt(row.wasted), FormatInt(row.spec_hits),
                  FormatInt(row.spec_mispredicts),
                  FormatDouble(row.hit_rate, 2),
                  FormatDouble(row.wasted_fraction, 3),
                  FormatInt(row.overlapped_rounds),
                  FormatDouble(row.speedup, 2)});
  }
  table.Print(std::cout);

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "pipeline: cannot open " << json_path << "\n";
    return;
  }
  json << "{\"bench\": \"pipeline_round_latency\", \"version\": 2"
       << ", \"latency_base_micros\": " << platform_options.latency.base_micros
       << ", \"latency_jitter_micros\": "
       << platform_options.latency.jitter_micros << ", \"rows\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const PipelineLatencyRow& row = rows[i];
    json << (i == 0 ? "" : ", ") << "{\"source\": \"" << row.source
         << "\", \"mode\": \"" << row.mode
         << "\", \"depth\": " << row.depth << ", \"wall_ms\": " << row.wall_ms
         << ", \"logical_steps\": " << row.logical_steps
         << ", \"ms_per_step\": " << row.ms_per_step
         << ", \"paid\": " << row.paid << ", \"wasted\": " << row.wasted
         << ", \"spec_hits\": " << row.spec_hits
         << ", \"spec_mispredicts\": " << row.spec_mispredicts
         << ", \"hit_rate\": " << row.hit_rate
         << ", \"wasted_fraction\": " << row.wasted_fraction
         << ", \"overlapped_rounds\": " << row.overlapped_rounds
         << ", \"max_in_flight\": " << row.max_in_flight
         << ", \"speedup\": " << row.speedup << "}";
  }
  json << "]}\n";
  std::cout << "[pipeline] wrote " << json_path << "\n";
}

}  // namespace
}  // namespace crowdmax

// Custom main: google-benchmark rejects unknown flags, so --threads=N and
// --metrics are stripped from argv first; --threads=N is applied to every
// BM_Parallel* benchmark and --metrics turns the global metrics registry
// on, to measure the instrumented path against the (default) disabled one.
// --pipeline (or --pipeline_json=FILE) additionally runs the round-latency
// report above and writes its machine-readable twin; --pipeline_smoke runs
// the same report at smoke sizes/latencies (for the ctest registration,
// which exists to keep the report's bit-identity CHECKs exercised).
int main(int argc, char** argv) {
  std::string pipeline_json;
  bool pipeline_smoke = false;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      crowdmax::g_threads_override = std::strtoll(argv[i] + 10, nullptr, 10);
      continue;
    }
    if (std::strcmp(argv[i], "--metrics") == 0 ||
        std::strcmp(argv[i], "--metrics=true") == 0) {
      crowdmax::SetMetricsEnabled(true);
      continue;
    }
    if (std::strcmp(argv[i], "--pipeline") == 0) {
      pipeline_json = "BENCH_pipeline.json";
      continue;
    }
    if (std::strncmp(argv[i], "--pipeline_json=", 16) == 0) {
      pipeline_json = argv[i] + 16;
      continue;
    }
    if (std::strcmp(argv[i], "--pipeline_smoke") == 0) {
      pipeline_json = "BENCH_pipeline_smoke.json";
      pipeline_smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!pipeline_json.empty()) {
    crowdmax::RunPipelineLatencyReport(pipeline_json, pipeline_smoke);
  }
  return 0;
}
