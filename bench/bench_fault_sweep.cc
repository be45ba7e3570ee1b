// Fault sweep: Algorithm 1 (batched) over ResilientBatchExecutor on a
// faulty DOTS platform, sweeping the abandonment rate while churn rides
// along. For each fault level the bench reports whether the true maximum
// was found, the extra logical steps recovery cost, the votes lost, and
// the rest of the FaultReport — the robustness counterpart of the Table 1
// bench, with EXPERIMENTS.md recording the measured rows.
//
// Flags: --fault_abandon_p (default sweeps {0, 0.05, 0.1, 0.2, 0.3};
//        setting the flag pins a single value), --fault_churn_p (default
//        0.05), --fault_seed (default 1), --max_retries (default 6),
//        --min_votes (default 2), --n (default 30), --u_n (default 5),
//        --seeds (default 3 fault seeds per level), --csv.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "core/async_executor.h"
#include "core/batched.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/multilevel.h"
#include "core/resilient.h"
#include "core/round_engine.h"
#include "core/topk.h"
#include "core/worker_model.h"
#include "datasets/dots.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

struct SweepRow {
  double abandon_p = 0.0;
  uint64_t fault_seed = 0;
  bool found_max = false;
  bool partial = false;
  int64_t naive_steps = 0;
  int64_t expert_steps = 0;
  FaultReport naive_faults;
  FaultReport expert_faults;
  PlatformFaultStats platform_stats;
};

SweepRow RunOnce(const Instance& instance, double abandon_p, double churn_p,
                 uint64_t fault_seed, int64_t max_retries, int64_t min_votes,
                 int64_t u_n) {
  RelativeErrorComparator crowd(&instance, DotsWorkerModel(),
                                fault_seed * 101 + 3);
  // Per-run trace: every comparison this run dispatches lands in exactly
  // one (phase, round, class, disposition) cell, reconciled against the
  // executor and platform tallies by the auditor below. Shadows the
  // session-wide trace (if any) for the duration of the run.
  AlgoTrace trace;
  ScopedTrace scoped_trace(&trace);

  FaultOptions fault;
  fault.abandon_probability = abandon_p;
  fault.churn_probability = churn_p;
  fault.min_quorum = min_votes;
  fault.seed = fault_seed;

  PlatformOptions options;
  options.num_workers = 40;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  options.seed = fault_seed * 31 + 7;
  options.fault = fault;

  auto platform = CrowdPlatform::Create(&crowd, &instance, {}, options);
  CROWDMAX_CHECK(platform.ok());

  auto naive_executor =
      PlatformBatchExecutor::Create(platform->get(), /*votes=*/3);
  auto expert_executor =
      PlatformBatchExecutor::Create(platform->get(), /*votes=*/7);
  CROWDMAX_CHECK(naive_executor.ok() && expert_executor.ok());

  ResilientOptions resilient_options;
  resilient_options.max_retries = max_retries;
  resilient_options.min_votes = min_votes;
  auto naive = ResilientBatchExecutor::Create(naive_executor->get(),
                                              resilient_options);
  auto expert = ResilientBatchExecutor::Create(expert_executor->get(),
                                               resilient_options);
  CROWDMAX_CHECK(naive.ok() && expert.ok());

  ExpertMaxOptions algo;
  algo.filter.u_n = u_n;
  Result<ExpertMaxResult> result = FindMaxWithExperts(
      instance.AllElements(), naive->get(), expert->get(), algo);
  CROWDMAX_CHECK(result.ok());

  // End-of-run reconciliation: the four tallies (per-phase paid stats,
  // resilient executor counters, platform fault stats, trace cells) must
  // agree, and every cell must satisfy
  // dispatched = answered + no_quorum + dropped.
  MetricsAuditor auditor(&trace);
  auditor.ExpectPaidStats(result->paid);
  auditor.ExpectDispatchedTotal((*naive)->comparisons() +
                                (*expert)->comparisons());
  auditor.ExpectTaskFaults((*platform)->fault_stats().dropped_tasks,
                           (*platform)->fault_stats().no_quorum_tasks);
  const Status audit = auditor.Check();
  if (!audit.ok()) std::cerr << audit.ToString() << "\n";
  CROWDMAX_CHECK(audit.ok());

  SweepRow row;
  row.abandon_p = abandon_p;
  row.fault_seed = fault_seed;
  row.found_max = result->best == instance.MaxElement();
  row.partial = result->partial;
  row.naive_steps = result->naive_steps;
  row.expert_steps = result->expert_steps;
  row.naive_faults = *result->naive_faults;
  row.expert_faults = *result->expert_faults;
  row.platform_stats = (*platform)->fault_stats();
  return row;
}

// Thread-count audit: the injected-fault pipeline
// Resilient(FaultInjecting(Parallel)) replayed at `threads`, with the
// auditor reconciling trace, executor and injector tallies. Returns the
// trace summary so callers can also assert bit-identical traces across
// thread counts.
std::string AuditInjectedPipeline(const Instance& instance, int64_t threads,
                                  uint64_t seed, int64_t u_n) {
  RelativeErrorComparator crowd(&instance, DotsWorkerModel(), seed * 59 + 11);
  auto pool = ParallelBatchExecutor::Create(&crowd, threads, seed * 17 + 1);
  CROWDMAX_CHECK(pool.ok());

  InjectedFaultOptions inject;
  inject.drop_probability = 0.1;
  inject.no_quorum_probability = 0.1;
  inject.partial_votes = 1;
  inject.seed = seed;
  auto injector = FaultInjectingBatchExecutor::Create(pool->get(), inject);
  CROWDMAX_CHECK(injector.ok());

  ResilientOptions recovery;
  recovery.max_retries = 6;
  recovery.min_votes = 2;
  recovery.fallback = SmallerIdFallback;
  auto resilient = ResilientBatchExecutor::Create(injector->get(), recovery);
  CROWDMAX_CHECK(resilient.ok());

  AlgoTrace trace;
  ScopedTrace scoped_trace(&trace);
  FilterOptions filter;
  filter.u_n = u_n;
  auto filtered =
      FilterCandidates(instance.AllElements(), filter, resilient->get());
  CROWDMAX_CHECK(filtered.ok());

  MetricsAuditor auditor(&trace);
  auditor.ExpectDispatched(TraceWorkerClass::kNaive,
                           (*resilient)->comparisons());
  auditor.ExpectDispatchedTotal((*injector)->comparisons());
  // The inner pool never saw the injected drops; adding them back must
  // reconcile with the same trace total.
  auditor.ExpectDispatchedTotal((*pool)->comparisons() +
                                (*injector)->injected_drops());
  auditor.ExpectTaskFaults((*injector)->injected_drops(),
                           (*injector)->injected_no_quorums());
  const Status audit = auditor.Check();
  if (!audit.ok()) std::cerr << audit.ToString() << "\n";
  CROWDMAX_CHECK(audit.ok());
  return trace.Summary();
}

// A fresh faulty-platform stack (crowd -> platform -> per-class platform
// executors -> resilient decorators), so each audited run owns its
// counters.
struct FaultyStack {
  std::unique_ptr<RelativeErrorComparator> crowd;
  std::unique_ptr<CrowdPlatform> platform;
  std::unique_ptr<PlatformBatchExecutor> naive_platform;
  std::unique_ptr<PlatformBatchExecutor> expert_platform;
  std::unique_ptr<ResilientBatchExecutor> naive;
  std::unique_ptr<ResilientBatchExecutor> expert;
};

FaultyStack MakeFaultyStack(const Instance& instance, double abandon_p,
                            double churn_p, uint64_t fault_seed,
                            int64_t max_retries, int64_t min_votes) {
  FaultyStack stack;
  stack.crowd = std::make_unique<RelativeErrorComparator>(
      &instance, DotsWorkerModel(), fault_seed * 101 + 3);

  FaultOptions fault;
  fault.abandon_probability = abandon_p;
  fault.churn_probability = churn_p;
  fault.min_quorum = min_votes;
  fault.seed = fault_seed;

  PlatformOptions options;
  options.num_workers = 40;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  options.seed = fault_seed * 31 + 7;
  options.fault = fault;

  auto platform =
      CrowdPlatform::Create(stack.crowd.get(), &instance, {}, options);
  CROWDMAX_CHECK(platform.ok());
  stack.platform = std::move(platform).value();

  auto naive_platform =
      PlatformBatchExecutor::Create(stack.platform.get(), /*votes=*/3);
  auto expert_platform =
      PlatformBatchExecutor::Create(stack.platform.get(), /*votes=*/7);
  CROWDMAX_CHECK(naive_platform.ok() && expert_platform.ok());
  stack.naive_platform = std::move(naive_platform).value();
  stack.expert_platform = std::move(expert_platform).value();

  ResilientOptions resilient_options;
  resilient_options.max_retries = max_retries;
  resilient_options.min_votes = min_votes;
  auto naive = ResilientBatchExecutor::Create(stack.naive_platform.get(),
                                              resilient_options);
  auto expert = ResilientBatchExecutor::Create(stack.expert_platform.get(),
                                               resilient_options);
  CROWDMAX_CHECK(naive.ok() && expert.ok());
  stack.naive = std::move(naive).value();
  stack.expert = std::move(expert).value();
  return stack;
}

// The engine-executed strategies that joined the batched surface with the
// RoundEngine refactor — top-k and the multilevel cascade — must reconcile
// under the auditor on the faulty platform exactly like Algorithm 1 above.
void AuditEngineExecutedStrategies(const Instance& instance, double abandon_p,
                                   double churn_p, uint64_t fault_seed,
                                   int64_t max_retries, int64_t min_votes,
                                   int64_t u_n) {
  {
    FaultyStack stack = MakeFaultyStack(instance, abandon_p, churn_p,
                                        fault_seed, max_retries, min_votes);
    AlgoTrace trace;
    ScopedTrace scoped_trace(&trace);
    TopKOptions topk;
    topk.k = 3;
    topk.filter.u_n = u_n;
    Result<TopKResult> result = FindTopKWithExperts(
        instance.AllElements(), stack.naive.get(), stack.expert.get(), topk);
    CROWDMAX_CHECK(result.ok());

    MetricsAuditor auditor(&trace);
    auditor.ExpectPaidStats(result->paid);
    auditor.ExpectDispatchedTotal(stack.naive->comparisons() +
                                  stack.expert->comparisons());
    auditor.ExpectTaskFaults(stack.platform->fault_stats().dropped_tasks,
                             stack.platform->fault_stats().no_quorum_tasks);
    const Status audit = auditor.Check();
    if (!audit.ok()) std::cerr << "topk: " << audit.ToString() << "\n";
    CROWDMAX_CHECK(audit.ok());
  }
  {
    FaultyStack stack = MakeFaultyStack(instance, abandon_p, churn_p,
                                        fault_seed, max_retries, min_votes);
    AlgoTrace trace;
    ScopedTrace scoped_trace(&trace);
    std::vector<WorkerClassSpec> classes = {
        {stack.naive.get(), u_n, 1.0}, {stack.expert.get(), 1, 40.0}};
    Result<MultilevelResult> result = FindMaxMultilevel(
        instance.AllElements(), classes, MultilevelOptions{});
    CROWDMAX_CHECK(result.ok());

    MetricsAuditor auditor(&trace);
    auditor.ExpectDispatched(TraceWorkerClass::kNaive,
                             result->paid_per_class[0]);
    auditor.ExpectDispatched(TraceWorkerClass::kExpert,
                             result->paid_per_class[1]);
    auditor.ExpectDispatchedTotal(stack.naive->comparisons() +
                                  stack.expert->comparisons());
    auditor.ExpectTaskFaults(stack.platform->fault_stats().dropped_tasks,
                             stack.platform->fault_stats().no_quorum_tasks);
    const Status audit = auditor.Check();
    if (!audit.ok()) std::cerr << "multilevel: " << audit.ToString() << "\n";
    CROWDMAX_CHECK(audit.ok());
  }
}

// Pipelining on, faults on: the depth-8 pipelined filter over the faulty
// (and latency-simulating) platform must reconcile under the auditor and
// replay the synchronous drive's trace byte for byte — recovery actions,
// fault tallies and all. Returns the trace summary of one run.
std::string AuditPipelinedFaultyPlatform(const Instance& instance,
                                         double abandon_p, double churn_p,
                                         uint64_t fault_seed,
                                         int64_t max_retries,
                                         int64_t min_votes, int64_t u_n,
                                         bool pipelined) {
  FaultyStack stack = MakeFaultyStack(instance, abandon_p, churn_p, fault_seed,
                                      max_retries, min_votes);
  AlgoTrace trace;
  ScopedTrace scoped_trace(&trace);
  FilterOptions filter;
  filter.u_n = u_n;
  filter.memoize = true;
  filter.pipeline_groups = true;
  Result<FilterResult> result = [&] {
    if (pipelined) {
      AsyncBatchAdapter async(stack.naive.get());
      return FilterCandidates(instance.AllElements(), filter,
                              Execution(&async, /*max_in_flight=*/8));
    }
    return FilterCandidates(instance.AllElements(), filter, stack.naive.get());
  }();
  CROWDMAX_CHECK(result.ok());

  MetricsAuditor auditor(&trace);
  auditor.ExpectDispatched(TraceWorkerClass::kNaive,
                           stack.naive->comparisons());
  auditor.ExpectTaskFaults(stack.platform->fault_stats().dropped_tasks,
                           stack.platform->fault_stats().no_quorum_tasks);
  const Status audit = auditor.Check();
  if (!audit.ok()) std::cerr << "pipelined: " << audit.ToString() << "\n";
  CROWDMAX_CHECK(audit.ok());
  return trace.Summary();
}

int Main(int argc, char** argv) {
  FlagParser flags = bench::ParseFlagsOrDie(argc, argv);
  bench::MetricsSession metrics_session(flags);
  const double churn_p = flags.GetDouble("fault_churn_p", 0.05);
  const int64_t max_retries = flags.GetBoundedInt("max_retries", 6, 0, 64);
  const int64_t min_votes = flags.GetBoundedInt("min_votes", 2, 1, 64);
  const int64_t n = flags.GetBoundedInt("n", 30, 5, 2000);
  const int64_t u_n = flags.GetBoundedInt("u_n", 5, 1, 100);
  const int64_t seeds = flags.GetBoundedInt("seeds", 3, 1, 64);
  const uint64_t first_seed =
      static_cast<uint64_t>(flags.GetInt("fault_seed", 1));

  std::vector<double> abandon_levels = {0.0, 0.05, 0.1, 0.2, 0.3};
  const double pinned = flags.GetDouble("fault_abandon_p", -1.0);
  if (pinned >= 0.0) abandon_levels = {pinned};

  bench::PrintHeader(
      "Fault sweep",
      "Algorithm 1 over ResilientBatchExecutor on a faulty DOTS platform");
  std::cout << "churn_p=" << churn_p << " max_retries=" << max_retries
            << " min_votes=" << min_votes << " n=" << n << " u_n=" << u_n
            << " seeds=" << seeds << "\n";

  DotsDataset dots = DotsDataset::Standard();
  Result<DotsDataset> sampled = dots.Sample(n, /*seed=*/123);
  CROWDMAX_CHECK(sampled.ok());
  const Instance instance = sampled->ToInstance();

  TablePrinter table({"abandon_p", "hit_rate", "partial", "steps",
                      "steps_added", "votes_lost", "retried", "relaxed",
                      "degraded", "churned"});
  for (double abandon_p : abandon_levels) {
    int64_t hits = 0;
    int64_t partials = 0;
    int64_t steps = 0;
    int64_t steps_added = 0;
    int64_t votes_lost = 0;
    int64_t retried = 0;
    int64_t relaxed = 0;
    int64_t degraded = 0;
    int64_t churned = 0;
    SweepRow last_row;
    for (int64_t s = 0; s < seeds; ++s) {
      const SweepRow row = RunOnce(instance, abandon_p, churn_p,
                                   first_seed + static_cast<uint64_t>(s),
                                   max_retries, min_votes, u_n);
      hits += row.found_max ? 1 : 0;
      partials += row.partial ? 1 : 0;
      steps += row.naive_steps + row.expert_steps;
      steps_added +=
          row.naive_faults.steps_added + row.expert_faults.steps_added;
      votes_lost +=
          row.naive_faults.votes_lost + row.expert_faults.votes_lost;
      retried +=
          row.naive_faults.retried_tasks + row.expert_faults.retried_tasks;
      relaxed += row.naive_faults.relaxed_accepts +
                 row.expert_faults.relaxed_accepts;
      degraded +=
          row.naive_faults.degraded_tasks + row.expert_faults.degraded_tasks;
      churned += row.platform_stats.churned_workers;
      last_row = row;
    }
    table.AddRow({FormatDouble(abandon_p, 2),
                  FormatDouble(static_cast<double>(hits) /
                                   static_cast<double>(seeds),
                               2),
                  FormatInt(partials), FormatInt(steps),
                  FormatInt(steps_added), FormatInt(votes_lost),
                  FormatInt(retried), FormatInt(relaxed),
                  FormatInt(degraded), FormatInt(churned)});
    std::cout << "abandon_p=" << FormatDouble(abandon_p, 2)
              << " last naive report: " << last_row.naive_faults.ToString()
              << "\n"
              << "            last expert report: "
              << last_row.expert_faults.ToString() << "\n";
  }
  bench::EmitTable(table, flags,
                   "Recovery cost and accuracy vs abandonment rate "
                   "(averaged over fault seeds)");

  // Accounting audit at thread counts 1 and 8: the injected-fault pipeline
  // must reconcile (auditor aborts on mismatch) and produce bit-identical
  // traces at both thread counts.
  const std::string serial_summary =
      AuditInjectedPipeline(instance, /*threads=*/1, first_seed, u_n);
  const std::string parallel_summary =
      AuditInjectedPipeline(instance, /*threads=*/8, first_seed, u_n);
  CROWDMAX_CHECK(serial_summary == parallel_summary);
  std::cout << "\nmetrics audit: reconciled at threads 1 and 8 "
               "(traces bit-identical)\n";

  // Same reconciliation for the engine-executed top-k and multilevel
  // strategies, under a moderate fault level.
  AuditEngineExecutedStrategies(instance, /*abandon_p=*/0.1, churn_p,
                                first_seed, max_retries, min_votes, u_n);
  std::cout << "metrics audit: engine-executed top-k and multilevel "
               "reconciled on the faulty platform\n";

  // Pipelining on: the depth-8 pipelined filter reconciles on the faulty
  // platform and replays the synchronous drive's trace bit for bit.
  const std::string sync_summary = AuditPipelinedFaultyPlatform(
      instance, /*abandon_p=*/0.1, churn_p, first_seed, max_retries,
      min_votes, u_n, /*pipelined=*/false);
  const std::string piped_summary = AuditPipelinedFaultyPlatform(
      instance, /*abandon_p=*/0.1, churn_p, first_seed, max_retries,
      min_votes, u_n, /*pipelined=*/true);
  CROWDMAX_CHECK(sync_summary == piped_summary);
  std::cout << "metrics audit: pipelined faulty-platform filter reconciled "
               "(trace bit-identical to the synchronous drive)\n";
  return 0;
}

}  // namespace
}  // namespace crowdmax

int main(int argc, char** argv) { return crowdmax::Main(argc, argv); }
