// Determinism contract of the parallel tournament engine (the core promise
// of FilterOptions::threads and friends): for a fixed seed, the winner, the
// survivor set, and the paid/issued comparison counts are bit-identical for
// every thread count >= 1 — the thread schedule is unobservable. Also
// covers the guard rail: non-forkable comparators are rejected with
// InvalidArgument.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/marcus.h"
#include "baselines/venetis.h"
#include "core/async_executor.h"
#include "core/batched.h"
#include "core/checkpoint.h"
#include "core/comparator.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/multilevel.h"
#include "core/round_engine.h"
#include "core/resilient.h"
#include "core/topk.h"
#include "core/trace.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "platform/platform.h"
#include "tests/per_call_comparator.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

// A comparator without a Fork override: the base-class default (nullptr)
// must make every parallel entry point fail with InvalidArgument.
class UnforkableComparator : public Comparator {
 public:
  explicit UnforkableComparator(const Instance* instance)
      : instance_(instance) {}

 private:
  ElementId DoCompare(ElementId a, ElementId b) override {
    return instance_->value(a) >= instance_->value(b) ? a : b;
  }
  const Instance* instance_;
};

struct FullRun {
  ElementId best;
  std::vector<ElementId> candidates;
  int64_t paid_naive;
  int64_t paid_expert;
  int64_t issued_naive;
  int64_t filter_rounds;
};

FullRun RunTwoPhase(const Instance& instance, int64_t u_n, double delta_n,
                    double delta_e, int64_t threads) {
  ThresholdComparator naive(&instance, ThresholdModel{delta_n, 0.1}, 101);
  ThresholdComparator expert(&instance, ThresholdModel{delta_e, 0.0}, 202);
  ExpertMaxOptions options;
  options.filter.u_n = u_n;
  options.filter.threads = threads;
  Result<ExpertMaxResult> result =
      FindMaxWithExperts(instance.AllElements(), &naive, &expert, options);
  CROWDMAX_CHECK(result.ok());
  return FullRun{result->best,         result->candidates,
                 result->paid.naive,   result->paid.expert,
                 result->issued.naive, result->filter_rounds};
}

TEST(DeterminismTest, TwoPhaseIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(600, 7);
  const double delta_n = instance.DeltaForU(8);
  const double delta_e = instance.DeltaForU(2);
  const int64_t u_n = instance.CountWithin(delta_n);

  const FullRun base = RunTwoPhase(instance, u_n, delta_n, delta_e, 1);
  for (int64_t threads : {2, 8}) {
    const FullRun run = RunTwoPhase(instance, u_n, delta_n, delta_e, threads);
    EXPECT_EQ(run.best, base.best) << "threads=" << threads;
    EXPECT_EQ(run.candidates, base.candidates) << "threads=" << threads;
    EXPECT_EQ(run.paid_naive, base.paid_naive) << "threads=" << threads;
    EXPECT_EQ(run.paid_expert, base.paid_expert) << "threads=" << threads;
    EXPECT_EQ(run.issued_naive, base.issued_naive) << "threads=" << threads;
    EXPECT_EQ(run.filter_rounds, base.filter_rounds) << "threads=" << threads;
  }
}

TEST(DeterminismTest, TwoPhaseRepeatWithSameSeedIsBitIdentical) {
  Instance instance = MakeInstance(400, 11);
  const double delta_n = instance.DeltaForU(6);
  const double delta_e = instance.DeltaForU(2);
  const int64_t u_n = instance.CountWithin(delta_n);
  const FullRun first = RunTwoPhase(instance, u_n, delta_n, delta_e, 4);
  const FullRun second = RunTwoPhase(instance, u_n, delta_n, delta_e, 4);
  EXPECT_EQ(first.best, second.best);
  EXPECT_EQ(first.candidates, second.candidates);
  EXPECT_EQ(first.paid_naive, second.paid_naive);
  EXPECT_EQ(first.paid_expert, second.paid_expert);
}

TEST(DeterminismTest, MemoizedParallelFilterIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(500, 13);
  const double delta = instance.DeltaForU(10);
  FilterOptions options;
  options.u_n = instance.CountWithin(delta);
  options.memoize = true;
  options.global_loss_counter = true;

  std::vector<FilterResult> runs;
  for (int64_t threads : {1, 2, 8}) {
    ThresholdComparator naive(&instance, ThresholdModel{delta, 0.05}, 303);
    options.threads = threads;
    Result<FilterResult> result =
        FilterCandidates(instance.AllElements(), options, &naive);
    ASSERT_TRUE(result.ok());
    runs.push_back(*std::move(result));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].candidates, runs[0].candidates);
    EXPECT_EQ(runs[i].paid_comparisons, runs[0].paid_comparisons);
    EXPECT_EQ(runs[i].issued_comparisons, runs[0].issued_comparisons);
    EXPECT_EQ(runs[i].rounds, runs[0].rounds);
    EXPECT_EQ(runs[i].round_sizes, runs[0].round_sizes);
    EXPECT_EQ(runs[i].evicted_by_loss_counter,
              runs[0].evicted_by_loss_counter);
  }
  // Memoization must actually save comparisons in the parallel path too.
  EXPECT_LT(runs[0].paid_comparisons, runs[0].issued_comparisons + 1);
}

TEST(DeterminismTest, ParallelFilterFindsSameWinnerAsSerialUnderOracle) {
  // With a deterministic truthful comparator the serial and parallel paths
  // must agree on the surviving winner even though their RNG draw orders
  // differ (no randomness is consumed).
  Instance instance = MakeInstance(300, 17);
  FilterOptions options;
  options.u_n = 4;

  OracleComparator serial_cmp(&instance);
  Result<FilterResult> serial =
      FilterCandidates(instance.AllElements(), options, &serial_cmp);
  ASSERT_TRUE(serial.ok());

  options.threads = 4;
  OracleComparator parallel_cmp(&instance);
  Result<FilterResult> parallel =
      FilterCandidates(instance.AllElements(), options, &parallel_cmp);
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(parallel->candidates, serial->candidates);
  EXPECT_EQ(parallel->paid_comparisons, serial->paid_comparisons);
}

TEST(DeterminismTest, ParallelBatchExecutorIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(256, 19);
  std::vector<ComparisonPair> tasks;
  for (ElementId a = 0; a < 255; ++a) tasks.emplace_back(a, a + 1);

  std::vector<std::vector<ElementId>> winners;
  std::vector<int64_t> paid;
  for (int64_t threads : {1, 4}) {
    ThresholdComparator cmp(&instance, ThresholdModel{0.05, 0.1}, 404);
    Result<std::unique_ptr<ParallelBatchExecutor>> executor =
        ParallelBatchExecutor::Create(&cmp, threads, /*seed=*/55,
                                      /*chunk_size=*/16);
    ASSERT_TRUE(executor.ok());
    Result<std::vector<BatchTaskResult>> results =
        (*executor)->TryExecuteBatch(tasks);
    ASSERT_TRUE(results.ok());
    winners.emplace_back();
    for (const BatchTaskResult& result : *results) {
      winners.back().push_back(result.winner);
    }
    paid.push_back(cmp.num_comparisons());
  }
  EXPECT_EQ(winners[0], winners[1]);
  EXPECT_EQ(paid[0], paid[1]);
}

TEST(DeterminismTest, MarcusLadderIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(350, 23);
  MarcusOptions options;
  options.group_size = 10;

  std::vector<MaxFindResult> runs;
  for (int64_t threads : {1, 2, 8}) {
    ThresholdComparator cmp(&instance, ThresholdModel{0.02, 0.1}, 505);
    options.threads = threads;
    Result<MaxFindResult> result =
        MarcusTournamentMax(instance.AllElements(), &cmp, options);
    ASSERT_TRUE(result.ok());
    runs.push_back(*std::move(result));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].best, runs[0].best);
    EXPECT_EQ(runs[i].paid_comparisons, runs[0].paid_comparisons);
    EXPECT_EQ(runs[i].issued_comparisons, runs[0].issued_comparisons);
    EXPECT_EQ(runs[i].rounds, runs[0].rounds);
  }
}

TEST(DeterminismTest, VenetisLadderIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(333, 29);
  VenetisOptions options;
  options.votes_per_match = 5;

  std::vector<MaxFindResult> runs;
  for (int64_t threads : {1, 2, 8}) {
    ThresholdComparator cmp(&instance, ThresholdModel{0.02, 0.15}, 606);
    options.threads = threads;
    Result<MaxFindResult> result =
        VenetisLadderMax(instance.AllElements(), &cmp, options);
    ASSERT_TRUE(result.ok());
    runs.push_back(*std::move(result));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].best, runs[0].best);
    EXPECT_EQ(runs[i].paid_comparisons, runs[0].paid_comparisons);
    EXPECT_EQ(runs[i].issued_comparisons, runs[0].issued_comparisons);
  }
}

// Satellite of the metrics/trace PR: the trace is part of the determinism
// contract. The serial (threads=1) and parallel (threads=8) filter must
// produce bit-identical trace summaries, not just identical results.
TEST(DeterminismTest, FilterTraceBitIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(400, 43);
  const double delta = instance.DeltaForU(8);
  FilterOptions options;
  options.u_n = instance.CountWithin(delta);

  auto run = [&](int64_t threads) {
    ThresholdComparator naive(&instance, ThresholdModel{delta, 0.1}, 707);
    options.threads = threads;
    AlgoTrace trace;
    {
      ScopedTrace scope(&trace);
      Result<FilterResult> result =
          FilterCandidates(instance.AllElements(), options, &naive);
      CROWDMAX_CHECK(result.ok());
      // Every paid comparison must land in a trace cell.
      MetricsAuditor auditor(&trace);
      auditor.ExpectDispatched(TraceWorkerClass::kNaive,
                               result->paid_comparisons);
      CROWDMAX_CHECK(auditor.Check().ok());
    }
    return trace.Summary();
  };

  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// Mixed serial/parallel accounting under injected faults: stats, fault
// tallies and the trace must all be identical at 1 and 8 threads, and the
// auditor must reconcile the tallies against the trace at both counts.
TEST(DeterminismTest, FaultyPipelineAccountingIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(90, 47);
  const double delta = instance.DeltaForU(5);

  struct Accounting {
    std::vector<ElementId> candidates;
    int64_t resilient_comparisons;
    int64_t injector_comparisons;
    int64_t injected_drops;
    int64_t injected_no_quorums;
    int64_t retried;
    int64_t degraded;
    std::string trace_summary;
  };
  auto run = [&](int64_t threads) {
    ThresholdComparator comparator(&instance, ThresholdModel{delta, 0.0},
                                   /*seed=*/48);
    auto pool = ParallelBatchExecutor::Create(&comparator, threads,
                                              /*seed=*/49, /*chunk_size=*/8);
    CROWDMAX_CHECK(pool.ok());
    InjectedFaultOptions inject;
    inject.drop_probability = 0.15;
    inject.no_quorum_probability = 0.1;
    inject.partial_votes = 1;
    inject.seed = 50;
    auto injector = FaultInjectingBatchExecutor::Create(pool->get(), inject);
    CROWDMAX_CHECK(injector.ok());
    ResilientOptions recovery;
    recovery.max_retries = 8;
    recovery.min_votes = 2;
    recovery.fallback = SmallerIdFallback;
    auto resilient =
        ResilientBatchExecutor::Create(injector->get(), recovery);
    CROWDMAX_CHECK(resilient.ok());

    AlgoTrace trace;
    Accounting out;
    {
      ScopedTrace scope(&trace);
      FilterOptions filter;
      filter.u_n = 5;
      Result<FilterResult> result = FilterCandidates(
          instance.AllElements(), filter, resilient->get());
      CROWDMAX_CHECK(result.ok());
      out.candidates = result->candidates;

      MetricsAuditor auditor(&trace);
      auditor.ExpectDispatched(TraceWorkerClass::kNaive,
                               (*resilient)->comparisons());
      auditor.ExpectDispatchedTotal((*injector)->comparisons());
      auditor.ExpectTaskFaults((*injector)->injected_drops(),
                               (*injector)->injected_no_quorums());
      const Status audit = auditor.Check();
      CROWDMAX_CHECK(audit.ok());
    }
    out.resilient_comparisons = (*resilient)->comparisons();
    out.injector_comparisons = (*injector)->comparisons();
    out.injected_drops = (*injector)->injected_drops();
    out.injected_no_quorums = (*injector)->injected_no_quorums();
    out.retried = (*resilient)->report().retried_tasks;
    out.degraded = (*resilient)->report().degraded_tasks;
    out.trace_summary = trace.Summary();
    return out;
  };

  const Accounting serial = run(1);
  const Accounting parallel = run(8);
  EXPECT_EQ(serial.candidates, parallel.candidates);
  EXPECT_EQ(serial.resilient_comparisons, parallel.resilient_comparisons);
  EXPECT_EQ(serial.injector_comparisons, parallel.injector_comparisons);
  EXPECT_EQ(serial.injected_drops, parallel.injected_drops);
  EXPECT_EQ(serial.injected_no_quorums, parallel.injected_no_quorums);
  EXPECT_EQ(serial.retried, parallel.retried);
  EXPECT_EQ(serial.degraded, parallel.degraded);
  EXPECT_EQ(serial.trace_summary, parallel.trace_summary);
  // The faults were real: the run exercised drops and retries.
  EXPECT_GT(serial.injected_drops, 0);
  EXPECT_GT(serial.retried, 0);
}

// The pipelined drive's headline determinism contract (DESIGN.md §11):
// over the same executor configuration, the filter on a pipelined
// Execution is bit-identical to the filter on the executor itself —
// candidates, paid/issued accounting, logical steps and the full trace —
// at executor threads {1, 8} and pipeline depths {1, 8}. The pipeline may
// only buy wall clock, never change a byte.
TEST(DeterminismTest, PipelinedFilterBitIdenticalToBatchedAcrossThreads) {
  Instance instance = MakeInstance(350, 59);
  const double delta = instance.DeltaForU(7);
  FilterOptions options;
  options.u_n = instance.CountWithin(delta);
  options.memoize = true;
  // Both sides run group-granular rounds, so the batch sequence (and with
  // it every seeded executor draw) lines up one to one.
  options.pipeline_groups = true;

  struct Accounting {
    std::vector<ElementId> candidates;
    int64_t paid;
    int64_t issued;
    int64_t rounds;
    int64_t executor_comparisons;
    int64_t executor_steps;
    std::string trace_summary;
  };
  auto fill = [](Accounting* out, const FilterResult& result,
                 BatchExecutor* executor) {
    out->candidates = result.candidates;
    out->paid = result.paid_comparisons;
    out->issued = result.issued_comparisons;
    out->rounds = result.rounds;
    out->executor_comparisons = executor->comparisons();
    out->executor_steps = executor->logical_steps();
  };

  auto run_batched = [&](int64_t threads) {
    ThresholdComparator worker(&instance, ThresholdModel{delta, 0.1},
                               /*seed=*/808);
    auto pool = ParallelBatchExecutor::Create(&worker, threads, /*seed=*/809,
                                              /*chunk_size=*/8);
    CROWDMAX_CHECK(pool.ok());
    AlgoTrace trace;
    Accounting out;
    {
      ScopedTrace scope(&trace);
      Result<FilterResult> result = FilterCandidates(
          instance.AllElements(), options, pool->get());
      CROWDMAX_CHECK(result.ok());
      fill(&out, *result, pool->get());
    }
    out.trace_summary = trace.Summary();
    return out;
  };
  auto run_pipelined = [&](int64_t threads, int64_t depth) {
    ThresholdComparator worker(&instance, ThresholdModel{delta, 0.1},
                               /*seed=*/808);
    auto pool = ParallelBatchExecutor::Create(&worker, threads, /*seed=*/809,
                                              /*chunk_size=*/8);
    CROWDMAX_CHECK(pool.ok());
    AsyncBatchAdapter async(pool->get());
    AlgoTrace trace;
    Accounting out;
    {
      ScopedTrace scope(&trace);
      Result<FilterResult> result = FilterCandidates(
          instance.AllElements(), options, Execution(&async, depth));
      CROWDMAX_CHECK(result.ok());
      fill(&out, *result, pool->get());
    }
    out.trace_summary = trace.Summary();
    return out;
  };

  for (int64_t threads : {int64_t{1}, int64_t{8}}) {
    const Accounting reference = run_batched(threads);
    EXPECT_FALSE(reference.trace_summary.empty());
    for (int64_t depth : {int64_t{1}, int64_t{8}}) {
      const Accounting piped = run_pipelined(threads, depth);
      const std::string at = "threads=" + std::to_string(threads) +
                             " depth=" + std::to_string(depth);
      EXPECT_EQ(piped.candidates, reference.candidates) << at;
      EXPECT_EQ(piped.paid, reference.paid) << at;
      EXPECT_EQ(piped.issued, reference.issued) << at;
      EXPECT_EQ(piped.rounds, reference.rounds) << at;
      EXPECT_EQ(piped.executor_comparisons, reference.executor_comparisons)
          << at;
      EXPECT_EQ(piped.executor_steps, reference.executor_steps) << at;
      EXPECT_EQ(piped.trace_summary, reference.trace_summary) << at;
    }
  }
}

// CI smoke for the pipelined faulty-platform path: a full run over a
// faulty, latency-simulating platform through the resilient stack and a
// depth-8 pipeline replays bit-identically from one seed tuple —
// candidates, fault stats, vote totals and the trace.
TEST(DeterminismTest, PipelinedFaultyPlatformReplaysFromOneSeed) {
  Instance instance = MakeInstance(120, 61);

  struct Replay {
    std::vector<ElementId> candidates;
    int64_t votes;
    int64_t discarded;
    int64_t votes_lost;
    int64_t unavailable;
    int64_t retried;
    int64_t latency_micros;
    std::string trace_summary;
  };
  auto run = [&] {
    OracleComparator crowd_model(&instance);
    PlatformOptions platform_options;
    platform_options.num_workers = 12;
    platform_options.spammer_fraction = 0.0;
    platform_options.honest_slip_probability = 0.0;
    platform_options.gold_task_probability = 0.0;
    platform_options.seed = 63;
    platform_options.fault.abandon_probability = 0.1;
    platform_options.fault.unavailable_probability = 0.05;
    platform_options.fault.min_quorum = 2;
    platform_options.fault.seed = 64;
    platform_options.latency.base_micros = 100;
    platform_options.latency.jitter_micros = 40;
    platform_options.latency.seed = 65;
    auto platform = CrowdPlatform::Create(&crowd_model, &instance, {},
                                          platform_options);
    CROWDMAX_CHECK(platform.ok());
    auto executor =
        PlatformBatchExecutor::Create(platform->get(), /*votes_per_task=*/3);
    CROWDMAX_CHECK(executor.ok());
    ResilientOptions recovery;
    recovery.max_retries = 6;
    recovery.fallback = SmallerIdFallback;
    auto resilient = ResilientBatchExecutor::Create(executor->get(), recovery);
    CROWDMAX_CHECK(resilient.ok());
    AsyncBatchAdapter async(resilient->get());

    FilterOptions filter;
    filter.u_n = 5;
    filter.memoize = true;
    filter.pipeline_groups = true;
    AlgoTrace trace;
    Replay out;
    {
      ScopedTrace scope(&trace);
      Result<FilterResult> result = FilterCandidates(
          instance.AllElements(), filter, Execution(&async, 8));
      CROWDMAX_CHECK(result.ok());
      out.candidates = result->candidates;
    }
    out.votes = (*executor)->executor_votes();
    out.discarded = (*executor)->executor_discarded_votes();
    out.votes_lost = (*platform)->fault_stats().votes_lost();
    out.unavailable = (*platform)->fault_stats().unavailable_errors;
    out.retried = (*resilient)->report().retried_tasks;
    out.latency_micros = (*platform)->total_latency_micros();
    out.trace_summary = trace.Summary();
    return out;
  };

  const Replay first = run();
  const Replay second = run();
  EXPECT_EQ(first.candidates, second.candidates);
  EXPECT_EQ(first.votes, second.votes);
  EXPECT_EQ(first.discarded, second.discarded);
  EXPECT_EQ(first.votes_lost, second.votes_lost);
  EXPECT_EQ(first.unavailable, second.unavailable);
  EXPECT_EQ(first.retried, second.retried);
  EXPECT_EQ(first.latency_micros, second.latency_micros);
  EXPECT_EQ(first.trace_summary, second.trace_summary);
  // The scenario was real: faults fired, recovery worked, latency accrued.
  EXPECT_GT(first.votes_lost + first.unavailable, 0);
  EXPECT_GT(first.latency_micros, 0);
  EXPECT_FALSE(first.candidates.empty());
}

// Engine-executed batched top-k: results, logical step counts, per-class
// paid accounting and the trace must be identical at 1 and 8 executor
// threads, and the auditor must reconcile at both counts.
TEST(DeterminismTest, BatchedTopKAccountingIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(300, 53);
  const double delta_n = instance.DeltaForU(8);
  const double delta_e = instance.DeltaForU(2);

  struct Accounting {
    std::vector<ElementId> top;
    std::vector<ElementId> candidates;
    int64_t paid_naive;
    int64_t paid_expert;
    int64_t naive_steps;
    int64_t expert_steps;
    std::string trace_summary;
  };
  auto run = [&](int64_t threads) {
    ThresholdComparator naive(&instance, ThresholdModel{delta_n, 0.1}, 54);
    ThresholdComparator expert(&instance, ThresholdModel{delta_e, 0.0}, 55);
    auto naive_pool = ParallelBatchExecutor::Create(&naive, threads,
                                                    /*seed=*/56,
                                                    /*chunk_size=*/8);
    auto expert_pool = ParallelBatchExecutor::Create(&expert, threads,
                                                     /*seed=*/57,
                                                     /*chunk_size=*/8);
    CROWDMAX_CHECK(naive_pool.ok());
    CROWDMAX_CHECK(expert_pool.ok());

    TopKOptions options;
    options.k = 4;
    options.filter.u_n = instance.CountWithin(delta_n);

    AlgoTrace trace;
    Accounting out;
    {
      ScopedTrace scope(&trace);
      Result<TopKResult> result = FindTopKWithExperts(
          instance.AllElements(), naive_pool->get(), expert_pool->get(),
          options);
      CROWDMAX_CHECK(result.ok());
      CROWDMAX_CHECK(!result->partial);
      out.top = result->top;
      out.candidates = result->candidates;
      out.paid_naive = result->paid.naive;
      out.paid_expert = result->paid.expert;
      out.naive_steps = result->naive_steps;
      out.expert_steps = result->expert_steps;

      MetricsAuditor auditor(&trace);
      auditor.ExpectPaidStats(result->paid);
      auditor.ExpectDispatchedTotal((*naive_pool)->comparisons() +
                                    (*expert_pool)->comparisons());
      const Status audit = auditor.Check();
      CROWDMAX_CHECK(audit.ok());
    }
    out.trace_summary = trace.Summary();
    return out;
  };

  const Accounting serial = run(1);
  const Accounting parallel = run(8);
  EXPECT_EQ(serial.top, parallel.top);
  EXPECT_EQ(serial.candidates, parallel.candidates);
  EXPECT_EQ(serial.paid_naive, parallel.paid_naive);
  EXPECT_EQ(serial.paid_expert, parallel.paid_expert);
  EXPECT_EQ(serial.naive_steps, parallel.naive_steps);
  EXPECT_EQ(serial.expert_steps, parallel.expert_steps);
  EXPECT_EQ(serial.trace_summary, parallel.trace_summary);
  EXPECT_EQ(static_cast<int64_t>(serial.top.size()), 4);
  // One expert all-play-all batch.
  EXPECT_EQ(serial.expert_steps, 1);
}

// Engine-executed batched multilevel cascade, same contract: thread count
// of the executor pools is unobservable in results, steps, accounting and
// the trace.
TEST(DeterminismTest, BatchedMultilevelAccountingIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance(260, 59);
  const double delta_mid = instance.DeltaForU(6);
  const double delta_expert = instance.DeltaForU(2);

  struct Accounting {
    ElementId best;
    std::vector<int64_t> paid_per_class;
    std::vector<int64_t> steps_per_class;
    std::vector<int64_t> candidates_per_level;
    double total_cost;
    std::string trace_summary;
  };
  auto run = [&](int64_t threads) {
    ThresholdComparator mid(&instance, ThresholdModel{delta_mid, 0.05}, 60);
    ThresholdComparator expert(&instance,
                               ThresholdModel{delta_expert, 0.0}, 61);
    auto mid_pool = ParallelBatchExecutor::Create(&mid, threads, /*seed=*/62,
                                                  /*chunk_size=*/8);
    auto expert_pool = ParallelBatchExecutor::Create(&expert, threads,
                                                     /*seed=*/63,
                                                     /*chunk_size=*/8);
    CROWDMAX_CHECK(mid_pool.ok());
    CROWDMAX_CHECK(expert_pool.ok());

    std::vector<WorkerClassSpec> classes;
    classes.push_back(
        {mid_pool->get(), instance.CountWithin(delta_mid), 1.0});
    classes.push_back({expert_pool->get(), 1, 25.0});

    AlgoTrace trace;
    Accounting out;
    {
      ScopedTrace scope(&trace);
      Result<MultilevelResult> result = FindMaxMultilevel(
          instance.AllElements(), classes, MultilevelOptions{});
      CROWDMAX_CHECK(result.ok());
      CROWDMAX_CHECK(!result->partial);
      out.best = result->best;
      out.paid_per_class = result->paid_per_class;
      out.steps_per_class = result->steps_per_class;
      out.candidates_per_level = result->candidates_per_level;
      out.total_cost = result->total_cost;

      MetricsAuditor auditor(&trace);
      auditor.ExpectDispatched(TraceWorkerClass::kNaive,
                               result->paid_per_class[0]);
      auditor.ExpectDispatched(TraceWorkerClass::kExpert,
                               result->paid_per_class[1]);
      const Status audit = auditor.Check();
      CROWDMAX_CHECK(audit.ok());
    }
    out.trace_summary = trace.Summary();
    return out;
  };

  const Accounting serial = run(1);
  const Accounting parallel = run(8);
  EXPECT_EQ(serial.best, parallel.best);
  EXPECT_EQ(serial.paid_per_class, parallel.paid_per_class);
  EXPECT_EQ(serial.steps_per_class, parallel.steps_per_class);
  EXPECT_EQ(serial.candidates_per_level, parallel.candidates_per_level);
  EXPECT_EQ(serial.total_cost, parallel.total_cost);
  EXPECT_EQ(serial.trace_summary, parallel.trace_summary);
  EXPECT_EQ(serial.best, instance.MaxElement());
}

TEST(DeterminismTest, ParallelPathRejectsUnforkableComparator) {
  Instance instance = MakeInstance(64, 31);
  UnforkableComparator cmp(&instance);

  FilterOptions filter;
  filter.u_n = 2;
  filter.threads = 2;
  EXPECT_FALSE(FilterCandidates(instance.AllElements(), filter, &cmp).ok());

  MarcusOptions marcus;
  marcus.threads = 2;
  EXPECT_FALSE(
      MarcusTournamentMax(instance.AllElements(), &cmp, marcus).ok());

  VenetisOptions venetis;
  venetis.threads = 2;
  EXPECT_FALSE(VenetisLadderMax(instance.AllElements(), &cmp, venetis).ok());

  EXPECT_FALSE(ParallelBatchExecutor::Create(&cmp, 2, /*seed=*/1).ok());

  // Serial paths still work fine with the same comparator.
  filter.threads = 0;
  EXPECT_TRUE(FilterCandidates(instance.AllElements(), filter, &cmp).ok());
}

TEST(DeterminismTest, NegativeThreadsRejected) {
  Instance instance = MakeInstance(32, 37);
  OracleComparator cmp(&instance);
  FilterOptions filter;
  filter.u_n = 2;
  filter.threads = -1;
  EXPECT_FALSE(FilterCandidates(instance.AllElements(), filter, &cmp).ok());
}

// The engine's batch vote generation (DESIGN.md §14) is an internal
// optimization: with it on or off, a full filter run over a stochastic
// worker must be bit-identical — candidates, rounds, paid/issued counts,
// cache hits, and the comparator's serialized state (counter + RNG stream
// position + sticky tables) — at every backend and thread count.
TEST(DeterminismTest, BatchGenerationBitIdenticalToPerCall) {
  Instance instance = MakeInstance(300, 47);
  FilterOptions options;
  options.u_n = 5;
  options.memoize = true;

  ThresholdComparator::Options model;
  model.model = ThresholdModel{instance.DeltaForU(5), 0.15};
  model.tie_policy = TiePolicy::kPersistentArbitrary;

  struct BatchRun {
    FilterResult run;
    int64_t cache_hits = 0;
    std::string comparator_state;
  };
  auto run_once = [&](int64_t threads, bool batch_generation) {
    ThresholdComparator cmp(&instance, model, /*seed=*/4711);
    PerCallComparator per_call(&cmp);
    Comparator* driven =
        batch_generation ? static_cast<Comparator*>(&cmp) : &per_call;
    std::unique_ptr<RoundEngine> engine;
    if (threads == 0) {
      engine = RoundEngine::CreateSerial(driven, options.memoize);
    } else {
      Result<std::unique_ptr<RoundEngine>> parallel =
          RoundEngine::CreateParallel(driven, threads, /*seed=*/4712,
                                      options.memoize);
      CROWDMAX_CHECK(parallel.ok());
      engine = std::move(parallel).value();
    }
    Result<FilterResult> run =
        RunFilterOnEngine(instance.AllElements(), options, engine.get());
    CROWDMAX_CHECK(run.ok());
    // The parallel engine merges its forks' counts into the comparator it
    // drives; carry them to `cmp`, so both states count every vote.
    cmp.AddComparisons(driven->num_comparisons() - cmp.num_comparisons());
    CheckpointWriter writer;
    CROWDMAX_CHECK(cmp.SaveState(&writer).ok());
    return BatchRun{*std::move(run), engine->cache_hits(), writer.Take()};
  };

  for (int64_t threads : {int64_t{0}, int64_t{1}, int64_t{8}}) {
    const BatchRun percall = run_once(threads, /*batch_generation=*/false);
    const BatchRun batch = run_once(threads, /*batch_generation=*/true);
    EXPECT_EQ(batch.run.candidates, percall.run.candidates)
        << "threads=" << threads;
    EXPECT_EQ(batch.run.rounds, percall.run.rounds)
        << "threads=" << threads;
    EXPECT_EQ(batch.run.paid_comparisons,
              percall.run.paid_comparisons)
        << "threads=" << threads;
    EXPECT_EQ(batch.run.issued_comparisons,
              percall.run.issued_comparisons)
        << "threads=" << threads;
    EXPECT_EQ(batch.cache_hits, percall.cache_hits) << "threads=" << threads;
    EXPECT_EQ(batch.comparator_state, percall.comparator_state)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace crowdmax
