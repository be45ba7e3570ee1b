// The chaos contract: crash-safe checkpoint/resume at the engine layer and
// the ServiceSupervisor's protection mechanisms at the service layer.
//
// The engine suites are the kill-and-resume golden tests of the robustness
// milestone: a run is killed by an armed CheckpointController at a round
// boundary, a *fresh* stack (engine, source, comparators, executors) is
// rebuilt with the same construction parameters, and the resumed run must
// be bit-identical to an uninterrupted run — same answer, same paid /
// issued / cache-hit counters, same comparator spend, and the same trace
// cells (the crash run's cells plus the resume run's cells sum to the
// uninterrupted run's, because a crash splits span structure but never
// invents or loses a dispatched comparison).
//
// The supervisor suites pin the typed-error contract: shed, killed and
// breaker-rejected queries never hang and never return silent partial
// results — every one carries a typed kUnavailable/kAborted with a
// retry-after hint — and chaos-killed queries recover by deterministic
// re-execution to the exact uninterrupted outcome.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/checkpoint.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/resilient.h"
#include "core/round_engine.h"
#include "core/tournament.h"
#include "core/trace.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "query/supervisor.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

std::vector<ElementId> AllItems(const Instance& instance) {
  std::vector<ElementId> items;
  for (int i = 0; i < instance.size(); ++i) items.push_back(i);
  return items;
}

using CellMap = std::map<TraceCellKey, TraceCellCounts>;

CellMap SumCells(const CellMap& a, const CellMap& b) {
  CellMap sum = a;
  for (const auto& [key, counts] : b) sum[key] += counts;
  return sum;
}

void ExpectCellsEqual(const CellMap& expected, const CellMap& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  auto it = actual.begin();
  for (const auto& [key, counts] : expected) {
    ASSERT_TRUE(it->first == key) << label << " cell key mismatch";
    const TraceCellCounts& got = it->second;
    EXPECT_EQ(got.dispatched, counts.dispatched) << label;
    EXPECT_EQ(got.answered, counts.answered) << label;
    EXPECT_EQ(got.no_quorum, counts.no_quorum) << label;
    EXPECT_EQ(got.dropped, counts.dropped) << label;
    EXPECT_EQ(got.cache_hits, counts.cache_hits) << label;
    EXPECT_EQ(got.degraded, counts.degraded) << label;
    EXPECT_EQ(got.retries, counts.retries) << label;
    ++it;
  }
}

// --- engine-layer kill-and-resume goldens ---------------------------------

// One comparator-backed filter stack, rebuilt identically for the
// baseline, the crash run, and the resume run. threads == 0 is the serial
// engine; otherwise the parallel engine at that thread count (the
// acceptance matrix runs threads {1, 8}).
struct FilterStack {
  std::unique_ptr<ThresholdComparator> comparator;
  std::unique_ptr<RoundEngine> engine;
};

FilterStack MakeFilterStack(const Instance* instance, int64_t threads) {
  FilterStack stack;
  ThresholdComparator::Options options;
  options.model = ThresholdModel{0.05, 0.1};
  // The sticky per-pair answer table is part of the checkpoint; exercise it.
  options.tie_policy = TiePolicy::kPersistentArbitrary;
  stack.comparator = std::make_unique<ThresholdComparator>(
      instance, options, /*seed=*/1234);
  if (threads == 0) {
    stack.engine =
        RoundEngine::CreateSerial(stack.comparator.get(), /*memoize=*/true);
  } else {
    Result<std::unique_ptr<RoundEngine>> parallel = RoundEngine::CreateParallel(
        stack.comparator.get(), threads, /*seed=*/99, /*memoize=*/true);
    CROWDMAX_CHECK(parallel.ok());
    stack.engine = std::move(parallel).value();
  }
  return stack;
}

struct GoldenOutcome {
  FilterResult run;
  int64_t paid = 0;
  int64_t issued = 0;
  int64_t cache_hits = 0;
  int64_t comparator_spend = 0;
  CellMap cells;
};

class FilterKillResumeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(FilterKillResumeTest, ResumeIsBitIdenticalAtEveryBoundary) {
  const int64_t threads = GetParam();
  const Instance instance = MakeInstance(48, /*seed=*/21);
  const std::vector<ElementId> items = AllItems(instance);
  FilterOptions options;
  options.u_n = 2;
  options.memoize = true;
  options.global_loss_counter = true;

  // Uninterrupted baseline.
  GoldenOutcome baseline;
  {
    FilterStack stack = MakeFilterStack(&instance, threads);
    AlgoTrace trace;
    ScopedTrace scoped(&trace);
    Result<FilterResult> run =
        RunFilterOnEngine(items, options, stack.engine.get());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    baseline.run = *run;
    baseline.paid = stack.engine->paid();
    baseline.issued = stack.engine->issued();
    baseline.cache_hits = stack.engine->cache_hits();
    baseline.comparator_spend = stack.comparator->num_comparisons();
    baseline.cells = trace.cells();
  }
  ASSERT_GE(baseline.run.rounds, 2)
      << "instance too small to exercise mid-run boundaries";

  // Kill at every eligible round boundary in turn, then resume a fresh
  // stack from the snapshot; each resumed run must match the baseline
  // bit for bit.
  for (int64_t boundary = 1; boundary < baseline.run.rounds;
       ++boundary) {
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " crash_boundary=" + std::to_string(boundary));

    std::string snapshot;
    CellMap crash_cells;
    {
      FilterStack stack = MakeFilterStack(&instance, threads);
      CheckpointController controller;
      controller.ArmCrashAtBoundary(boundary);
      stack.engine->set_checkpoint(&controller);
      AlgoTrace trace;
      ScopedTrace scoped(&trace);
      Result<FilterResult> crashed =
          RunFilterOnEngine(items, options, stack.engine.get());
      ASSERT_FALSE(crashed.ok());
      EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
      ASSERT_TRUE(controller.has_checkpoint());
      EXPECT_TRUE(controller.crashed());
      snapshot = controller.checkpoint();
      crash_cells = trace.cells();
    }

    FilterStack stack = MakeFilterStack(&instance, threads);
    CheckpointController controller;
    controller.ResumeFrom(snapshot);
    stack.engine->set_checkpoint(&controller);
    AlgoTrace trace;
    ScopedTrace scoped(&trace);
    Result<FilterResult> resumed =
        RunFilterOnEngine(items, options, stack.engine.get());
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(controller.restores(), 1);

    EXPECT_EQ(resumed->candidates, baseline.run.candidates);
    EXPECT_EQ(resumed->paid_comparisons,
              baseline.run.paid_comparisons);
    EXPECT_EQ(resumed->issued_comparisons,
              baseline.run.issued_comparisons);
    EXPECT_EQ(resumed->rounds, baseline.run.rounds);
    EXPECT_EQ(resumed->round_sizes, baseline.run.round_sizes);
    EXPECT_EQ(resumed->evicted_by_loss_counter,
              baseline.run.evicted_by_loss_counter);
    EXPECT_EQ(stack.engine->paid(), baseline.paid);
    EXPECT_EQ(stack.engine->issued(), baseline.issued);
    EXPECT_EQ(stack.engine->cache_hits(), baseline.cache_hits);
    EXPECT_EQ(stack.comparator->num_comparisons(),
              baseline.comparator_spend);
    // A crash splits the trace's span structure but conserves its cells:
    // crash-run cells + resume-run cells == uninterrupted cells.
    ExpectCellsEqual(baseline.cells, SumCells(crash_cells, trace.cells()),
                     "summed cells");
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FilterKillResumeTest,
                         ::testing::Values<int64_t>(0, 1, 8));

TEST(ChaosEngineTest, TwoMaxFindKillAndResume) {
  const Instance instance = MakeInstance(40, /*seed=*/31);
  const std::vector<ElementId> items = AllItems(instance);
  auto make_stack = [&instance] {
    FilterStack stack;
    stack.comparator = std::make_unique<ThresholdComparator>(
        &instance, ThresholdModel{0.05, 0.1}, /*seed=*/77);
    stack.engine =
        RoundEngine::CreateSerial(stack.comparator.get(), /*memoize=*/true);
    return stack;
  };

  FilterStack baseline_stack = make_stack();
  Result<MaxFindResult> baseline =
      RunTwoMaxFindOnEngine(items, baseline_stack.engine.get());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  FilterStack crash_stack = make_stack();
  CheckpointController crash_controller;
  crash_controller.ArmCrashAtBoundary(2);
  crash_stack.engine->set_checkpoint(&crash_controller);
  Result<MaxFindResult> crashed =
      RunTwoMaxFindOnEngine(items, crash_stack.engine.get());
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
  ASSERT_TRUE(crash_controller.has_checkpoint());

  FilterStack resume_stack = make_stack();
  CheckpointController resume_controller;
  resume_controller.ResumeFrom(crash_controller.checkpoint());
  resume_stack.engine->set_checkpoint(&resume_controller);
  Result<MaxFindResult> resumed =
      RunTwoMaxFindOnEngine(items, resume_stack.engine.get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->best, baseline->best);
  EXPECT_EQ(resumed->paid_comparisons,
            baseline->paid_comparisons);
  EXPECT_EQ(resumed->issued_comparisons,
            baseline->issued_comparisons);
  EXPECT_EQ(resumed->rounds, baseline->rounds);
  EXPECT_EQ(resume_stack.comparator->num_comparisons(),
            baseline_stack.comparator->num_comparisons());
}

TEST(ChaosEngineTest, RandomizedMaxFindKillAndResume) {
  const Instance instance = MakeInstance(60, /*seed=*/41);
  const std::vector<ElementId> items = AllItems(instance);
  RandomizedMaxFindOptions rand_options;
  rand_options.seed = 9;
  rand_options.group_size_override = 8;
  auto make_stack = [&instance] {
    FilterStack stack;
    stack.comparator = std::make_unique<ThresholdComparator>(
        &instance, ThresholdModel{0.05, 0.1}, /*seed=*/55);
    stack.engine =
        RoundEngine::CreateSerial(stack.comparator.get(), /*memoize=*/true);
    return stack;
  };

  FilterStack baseline_stack = make_stack();
  Result<MaxFindResult> baseline = RunRandomizedMaxFindOnEngine(
      items, baseline_stack.engine.get(), rand_options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  FilterStack crash_stack = make_stack();
  CheckpointController crash_controller;
  crash_controller.ArmCrashAtBoundary(1);
  crash_stack.engine->set_checkpoint(&crash_controller);
  Result<MaxFindResult> crashed = RunRandomizedMaxFindOnEngine(
      items, crash_stack.engine.get(), rand_options);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
  ASSERT_TRUE(crash_controller.has_checkpoint());

  // The source's own sampling RNG position is part of the checkpoint; the
  // resumed run must replay the identical partitions.
  FilterStack resume_stack = make_stack();
  CheckpointController resume_controller;
  resume_controller.ResumeFrom(crash_controller.checkpoint());
  resume_stack.engine->set_checkpoint(&resume_controller);
  Result<MaxFindResult> resumed = RunRandomizedMaxFindOnEngine(
      items, resume_stack.engine.get(), rand_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->best, baseline->best);
  EXPECT_EQ(resumed->paid_comparisons,
            baseline->paid_comparisons);
  EXPECT_EQ(resumed->issued_comparisons,
            baseline->issued_comparisons);
  EXPECT_EQ(resumed->rounds, baseline->rounds);
  EXPECT_EQ(resume_stack.comparator->num_comparisons(),
            baseline_stack.comparator->num_comparisons());
}

TEST(ChaosEngineTest, TournamentCrashAfterOnlyRoundResumesToResult) {
  const Instance instance = MakeInstance(12, /*seed=*/3);
  const std::vector<ElementId> items = AllItems(instance);
  auto make_stack = [&instance] {
    FilterStack stack;
    stack.comparator = std::make_unique<ThresholdComparator>(
        &instance, ThresholdModel{0.05, 0.1}, /*seed=*/17);
    stack.engine =
        RoundEngine::CreateSerial(stack.comparator.get(), /*memoize=*/true);
    return stack;
  };

  FilterStack baseline_stack = make_stack();
  Result<TournamentResult> baseline =
      RunTournamentOnEngine(items, baseline_stack.engine.get());
  ASSERT_TRUE(baseline.ok());

  FilterStack crash_stack = make_stack();
  CheckpointController crash_controller;
  crash_controller.ArmCrashAtBoundary(1);
  crash_stack.engine->set_checkpoint(&crash_controller);
  Result<TournamentResult> crashed =
      RunTournamentOnEngine(items, crash_stack.engine.get());
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);

  // The crash landed after the tournament's only round: the resumed drive
  // replays zero rounds and still reports the full tally.
  FilterStack resume_stack = make_stack();
  CheckpointController resume_controller;
  resume_controller.ResumeFrom(crash_controller.checkpoint());
  resume_stack.engine->set_checkpoint(&resume_controller);
  Result<TournamentResult> resumed =
      RunTournamentOnEngine(items, resume_stack.engine.get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->wins, baseline->wins);
  EXPECT_EQ(resumed->comparisons, baseline->comparisons);
  EXPECT_EQ(resume_stack.comparator->num_comparisons(),
            baseline_stack.comparator->num_comparisons());
}

// The full faulty executor stack — injector over a comparator executor,
// wrapped resilient — checkpoints every layer (injection RNG position,
// retry report, counters), so a resumed faulty run replays the identical
// fault pattern.
TEST(ChaosEngineTest, FaultyExecutorStackKillAndResume) {
  const Instance instance = MakeInstance(36, /*seed=*/13);
  const std::vector<ElementId> items = AllItems(instance);
  FilterOptions options;
  options.u_n = 2;
  options.memoize = true;

  struct ExecutorStack {
    std::unique_ptr<OracleComparator> comparator;
    std::unique_ptr<ComparatorBatchExecutor> inner;
    std::unique_ptr<FaultInjectingBatchExecutor> faulty;
    std::unique_ptr<ResilientBatchExecutor> resilient;
    std::unique_ptr<RoundEngine> engine;
  };
  auto make_stack = [&instance] {
    ExecutorStack stack;
    stack.comparator = std::make_unique<OracleComparator>(&instance);
    stack.inner =
        std::make_unique<ComparatorBatchExecutor>(stack.comparator.get());
    InjectedFaultOptions faults;
    faults.drop_probability = 0.1;
    faults.no_quorum_probability = 0.1;
    faults.seed = 2024;
    Result<std::unique_ptr<FaultInjectingBatchExecutor>> faulty =
        FaultInjectingBatchExecutor::Create(stack.inner.get(), faults);
    CROWDMAX_CHECK(faulty.ok());
    stack.faulty = std::move(faulty).value();
    ResilientOptions recovery;
    recovery.max_retries = 4;
    Result<std::unique_ptr<ResilientBatchExecutor>> resilient =
        ResilientBatchExecutor::Create(stack.faulty.get(), recovery);
    CROWDMAX_CHECK(resilient.ok());
    stack.resilient = std::move(resilient).value();
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreateBatched(stack.resilient.get(), /*memoize=*/true);
    CROWDMAX_CHECK(engine.ok());
    stack.engine = std::move(engine).value();
    return stack;
  };

  ExecutorStack baseline_stack = make_stack();
  Result<FilterResult> baseline =
      RunFilterOnEngine(items, options, baseline_stack.engine.get());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GE(baseline->rounds, 2);

  ExecutorStack crash_stack = make_stack();
  CheckpointController crash_controller;
  crash_controller.ArmCrashAtBoundary(2);
  crash_stack.engine->set_checkpoint(&crash_controller);
  Result<FilterResult> crashed =
      RunFilterOnEngine(items, options, crash_stack.engine.get());
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
  ASSERT_TRUE(crash_controller.has_checkpoint());

  ExecutorStack resume_stack = make_stack();
  CheckpointController resume_controller;
  resume_controller.ResumeFrom(crash_controller.checkpoint());
  resume_stack.engine->set_checkpoint(&resume_controller);
  Result<FilterResult> resumed =
      RunFilterOnEngine(items, options, resume_stack.engine.get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->candidates, baseline->candidates);
  EXPECT_EQ(resumed->paid_comparisons,
            baseline->paid_comparisons);
  EXPECT_EQ(resumed->issued_comparisons,
            baseline->issued_comparisons);
  EXPECT_EQ(resumed->partial, baseline->partial);
  EXPECT_EQ(resume_stack.resilient->comparisons(),
            baseline_stack.resilient->comparisons());
  // Injection counters are restored absolutely, so the resumed stack ends
  // at the uninterrupted totals.
  EXPECT_EQ(resume_stack.faulty->injected_drops(),
            baseline_stack.faulty->injected_drops());
  EXPECT_EQ(resume_stack.faulty->injected_no_quorums(),
            baseline_stack.faulty->injected_no_quorums());
}

// The pipelined drive checkpoints only at drained boundaries (no round in
// flight), so its resumed runs replay the same overlap pattern.
TEST(ChaosEngineTest, PipelinedDriveKillAndResume) {
  const Instance instance = MakeInstance(48, /*seed=*/19);
  const std::vector<ElementId> items = AllItems(instance);
  FilterOptions options;
  options.u_n = 2;
  options.memoize = true;
  options.pipeline_groups = true;

  struct PipelinedStack {
    std::unique_ptr<OracleComparator> comparator;
    std::unique_ptr<ComparatorBatchExecutor> executor;
    std::unique_ptr<AsyncBatchAdapter> async;
    std::unique_ptr<RoundEngine> engine;
  };
  auto make_stack = [&instance] {
    PipelinedStack stack;
    stack.comparator = std::make_unique<OracleComparator>(&instance);
    stack.executor =
        std::make_unique<ComparatorBatchExecutor>(stack.comparator.get());
    stack.async = std::make_unique<AsyncBatchAdapter>(stack.executor.get());
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(stack.async.get(), /*max_in_flight=*/3,
                                     /*memoize=*/true);
    CROWDMAX_CHECK(engine.ok());
    stack.engine = std::move(engine).value();
    return stack;
  };

  PipelinedStack baseline_stack = make_stack();
  Result<FilterResult> baseline =
      RunFilterOnEngine(items, options, baseline_stack.engine.get());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  PipelinedStack crash_stack = make_stack();
  CheckpointController crash_controller;
  crash_controller.ArmCrashAtBoundary(1);
  crash_stack.engine->set_checkpoint(&crash_controller);
  Result<FilterResult> crashed =
      RunFilterOnEngine(items, options, crash_stack.engine.get());
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
  ASSERT_TRUE(crash_controller.has_checkpoint());

  PipelinedStack resume_stack = make_stack();
  CheckpointController resume_controller;
  resume_controller.ResumeFrom(crash_controller.checkpoint());
  resume_stack.engine->set_checkpoint(&resume_controller);
  Result<FilterResult> resumed =
      RunFilterOnEngine(items, options, resume_stack.engine.get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->candidates, baseline->candidates);
  EXPECT_EQ(resumed->paid_comparisons,
            baseline->paid_comparisons);
  EXPECT_EQ(resumed->issued_comparisons,
            baseline->issued_comparisons);
  EXPECT_EQ(resume_stack.comparator->num_comparisons(),
            baseline_stack.comparator->num_comparisons());
}

// Snapshot cadence on a healthy run: snapshots fire every n-th boundary
// and resuming from the final snapshot completes with the same answer.
TEST(ChaosEngineTest, CadenceSnapshotsSupportLateResume) {
  const Instance instance = MakeInstance(48, /*seed=*/23);
  const std::vector<ElementId> items = AllItems(instance);
  FilterOptions options;
  options.u_n = 2;
  options.memoize = true;

  FilterStack baseline_stack = MakeFilterStack(&instance, 0);
  CheckpointController cadence;
  cadence.set_snapshot_every_rounds(2);
  baseline_stack.engine->set_checkpoint(&cadence);
  Result<FilterResult> baseline =
      RunFilterOnEngine(items, options, baseline_stack.engine.get());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GE(cadence.boundaries_seen(), 2);
  EXPECT_EQ(cadence.snapshots_taken(), cadence.boundaries_seen() / 2);
  ASSERT_TRUE(cadence.has_checkpoint());

  FilterStack resume_stack = MakeFilterStack(&instance, 0);
  CheckpointController controller;
  controller.ResumeFrom(cadence.checkpoint());
  resume_stack.engine->set_checkpoint(&controller);
  Result<FilterResult> resumed =
      RunFilterOnEngine(items, options, resume_stack.engine.get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->candidates, baseline->candidates);
  EXPECT_EQ(resumed->paid_comparisons,
            baseline->paid_comparisons);
}

// --- supervisor: chaos kills, shedding, breakers, degradation -------------

struct SupervisorRig {
  Instance instance;
  SupervisorOptions options;
};

SupervisorRig MakeSupervisorRig() {
  SupervisorRig rig{MakeInstance(30, /*seed=*/5), SupervisorOptions()};
  ServiceShard shard;
  shard.instance = &rig.instance;
  shard.delta_naive = 0.1;
  rig.options.service.shards.push_back(shard);
  rig.options.service.use_platform = true;
  rig.options.service.platform_workers = 20;
  rig.options.service.naive_votes = 3;
  rig.options.service.expert_votes = 3;
  return rig;
}

QuerySpec MakeMaxSpec(const std::string& tenant, uint64_t seed) {
  QuerySpec spec;
  spec.tenant = tenant;
  spec.kind = QueryKind::kMax;
  spec.u_n = 2;
  spec.seed = seed;
  return spec;
}

TEST(ChaosSupervisorTest, KilledQueriesRecoverToUninterruptedOutcome) {
  SupervisorRig rig = MakeSupervisorRig();
  rig.options.chaos.seed = 404;
  rig.options.chaos.kill_query_probability = 1.0;
  // Kill at the first grant boundary: every kMax query needs at least two
  // batch submissions (a filter round plus phase 2), so the kill always
  // lands mid-run.
  rig.options.chaos.min_kill_step = 1;
  rig.options.chaos.max_kill_step = 1;
  rig.options.chaos.max_restarts = 1;

  std::vector<QuerySpec> specs = {MakeMaxSpec("alpha", 11),
                                  MakeMaxSpec("beta", 22),
                                  MakeMaxSpec("gamma", 33)};

  Result<ServiceSupervisor> supervisor =
      ServiceSupervisor::Create(rig.options);
  ASSERT_TRUE(supervisor.ok()) << supervisor.status().ToString();
  Result<SupervisedRunResult> run = supervisor->Run(specs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run->report.submitted, 3);
  EXPECT_EQ(run->report.killed, 3);
  EXPECT_EQ(run->report.recovered, 3);
  EXPECT_EQ(run->report.unrecovered, 0);
  EXPECT_EQ(run->report.completed, 3);

  for (size_t i = 0; i < specs.size(); ++i) {
    const SupervisedOutcome& sup = run->outcomes[i];
    EXPECT_EQ(sup.kills, 1);
    EXPECT_EQ(sup.restarts, 1);
    ASSERT_TRUE(sup.outcome.status.ok()) << sup.outcome.status.ToString();

    // The recovered outcome is the uninterrupted outcome, bit for bit:
    // re-execution replays the hermetically seeded tenant stack.
    Result<QueryOutcome> alone =
        QueryService::ExecuteAlone(rig.options.service, specs[i]);
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(sup.outcome.best, alone->best);
    EXPECT_EQ(sup.outcome.paid.naive, alone->paid.naive);
    EXPECT_EQ(sup.outcome.paid.expert, alone->paid.expert);
    EXPECT_EQ(sup.outcome.cache_hits, alone->cache_hits);
    EXPECT_EQ(sup.outcome.partial, alone->partial);
  }
}

TEST(ChaosSupervisorTest, ZeroRestartsLeaveTypedAbort) {
  SupervisorRig rig = MakeSupervisorRig();
  rig.options.chaos.seed = 7;
  rig.options.chaos.kill_query_probability = 1.0;
  rig.options.chaos.min_kill_step = 1;
  rig.options.chaos.max_kill_step = 1;
  rig.options.chaos.max_restarts = 0;

  Result<ServiceSupervisor> supervisor =
      ServiceSupervisor::Create(rig.options);
  ASSERT_TRUE(supervisor.ok());
  Result<SupervisedRunResult> run =
      supervisor->Run({MakeMaxSpec("alpha", 11)});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->report.killed, 1);
  EXPECT_EQ(run->report.unrecovered, 1);
  EXPECT_EQ(run->report.completed, 0);
  const SupervisedOutcome& sup = run->outcomes[0];
  // Never silent: the kill is a typed kAborted with a retry hint, and the
  // true spend of the aborted attempt is still reported.
  EXPECT_EQ(sup.outcome.status.code(), StatusCode::kAborted);
  EXPECT_GT(sup.outcome.status.retry_after_steps(), 0);
  EXPECT_TRUE(sup.outcome.admitted);
  EXPECT_GT(sup.outcome.paid.naive, 0);
}

TEST(ChaosSupervisorTest, OutageWindowShedsWithCountdownHints) {
  SupervisorRig rig = MakeSupervisorRig();
  rig.options.chaos.outage_start = 1;
  rig.options.chaos.outage_queries = 2;

  std::vector<QuerySpec> specs = {
      MakeMaxSpec("a", 1), MakeMaxSpec("b", 2), MakeMaxSpec("c", 3),
      MakeMaxSpec("d", 4)};
  Result<ServiceSupervisor> supervisor =
      ServiceSupervisor::Create(rig.options);
  ASSERT_TRUE(supervisor.ok());
  Result<SupervisedRunResult> run = supervisor->Run(specs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run->report.shed_outage, 2);
  EXPECT_EQ(run->report.executed, 2);
  EXPECT_TRUE(run->outcomes[0].outcome.status.ok());
  EXPECT_TRUE(run->outcomes[3].outcome.status.ok());
  // The retry hint counts down to the end of the outage window.
  for (size_t i : {size_t{1}, size_t{2}}) {
    const SupervisedOutcome& sup = run->outcomes[i];
    EXPECT_TRUE(sup.shed_load);
    EXPECT_EQ(sup.outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(sup.outcome.status.retry_after_steps(),
              static_cast<int64_t>(3 - i));
    EXPECT_FALSE(sup.outcome.admitted);
  }
}

TEST(ChaosSupervisorTest, WatermarkShedsLowestWeightFirst) {
  SupervisorRig rig = MakeSupervisorRig();
  rig.options.shed.max_admitted = 2;
  rig.options.shed.retry_after_steps = 4;

  std::vector<QuerySpec> specs = {
      MakeMaxSpec("heavy", 1), MakeMaxSpec("light-early", 2),
      MakeMaxSpec("mid", 3), MakeMaxSpec("light-late", 4)};
  specs[0].weight = 5;
  specs[1].weight = 1;
  specs[2].weight = 3;
  specs[3].weight = 1;

  Result<ServiceSupervisor> supervisor =
      ServiceSupervisor::Create(rig.options);
  ASSERT_TRUE(supervisor.ok());
  Result<SupervisedRunResult> run = supervisor->Run(specs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Lowest weight first; among equal weights the later submission sheds
  // first — so both weight-1 tenants shed and the heavy tenants run.
  EXPECT_EQ(run->report.shed_load, 2);
  EXPECT_TRUE(run->outcomes[0].outcome.status.ok());
  EXPECT_TRUE(run->outcomes[2].outcome.status.ok());
  for (size_t i : {size_t{1}, size_t{3}}) {
    const SupervisedOutcome& sup = run->outcomes[i];
    EXPECT_TRUE(sup.shed_load);
    EXPECT_EQ(sup.outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(sup.outcome.status.retry_after_steps(), 4);
  }
}

// A shard whose crowd is down hard: nearly every submission fails (the
// platform caps the probability below 1), the resilient layer exhausts
// its budget, and the query surfaces kUnavailable — the breaker's failure
// signal. The pattern is deterministic for the fixed tenant seeds.
SupervisorRig MakeDownShardRig() {
  SupervisorRig rig = MakeSupervisorRig();
  rig.options.service.fault.unavailable_probability = 0.999;
  rig.options.service.resilient.max_retries = 1;
  return rig;
}

TEST(ChaosSupervisorTest, BreakerTripsShedsAndProbeFailureReopens) {
  SupervisorRig rig = MakeDownShardRig();
  rig.options.breaker.failure_threshold = 2;
  rig.options.breaker.cooldown_queries = 2;
  rig.options.breaker.retry_after_steps = 8;

  std::vector<QuerySpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(MakeMaxSpec("t" + std::to_string(i), 100 + i));
  }
  Result<ServiceSupervisor> supervisor =
      ServiceSupervisor::Create(rig.options);
  ASSERT_TRUE(supervisor.ok());
  Result<SupervisedRunResult> run = supervisor->Run(specs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // q0, q1 fail -> trip. q2, q3 shed through the cooldown. q4 probes
  // half-open, fails, re-opens. q5 sheds again.
  EXPECT_EQ(run->report.breaker_trips, 2);
  EXPECT_EQ(run->report.breaker_probes, 1);
  EXPECT_EQ(run->report.breaker_closes, 0);
  EXPECT_EQ(run->report.shed_breaker, 3);
  EXPECT_EQ(supervisor->breaker_state(0), BreakerState::kOpen);
  for (size_t i : {size_t{2}, size_t{3}, size_t{5}}) {
    const SupervisedOutcome& sup = run->outcomes[i];
    EXPECT_TRUE(sup.shed_breaker);
    EXPECT_EQ(sup.outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(sup.outcome.status.retry_after_steps(), 8);
  }
  EXPECT_TRUE(run->outcomes[4].probe);
}

TEST(ChaosSupervisorTest, DegradedProbeClosesBreaker) {
  SupervisorRig rig = MakeDownShardRig();
  rig.options.breaker.failure_threshold = 2;
  rig.options.breaker.cooldown_queries = 2;
  // Graceful degradation: while the breaker is not closed, queries run
  // under a relaxed policy whose deterministic fallback always resolves —
  // so the half-open probe succeeds and the breaker closes.
  rig.options.degrade.enabled = true;
  rig.options.degrade.degraded.max_retries = 0;
  rig.options.degrade.degraded.fallback = SmallerIdFallback;

  std::vector<QuerySpec> specs;
  for (int i = 0; i < 5; ++i) {
    specs.push_back(MakeMaxSpec("t" + std::to_string(i), 200 + i));
  }
  Result<ServiceSupervisor> supervisor =
      ServiceSupervisor::Create(rig.options);
  ASSERT_TRUE(supervisor.ok());
  Result<SupervisedRunResult> run = supervisor->Run(specs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // q0, q1 fail -> trip. q2, q3 shed. q4 probes degraded, succeeds,
  // closes the breaker.
  EXPECT_EQ(run->report.breaker_trips, 1);
  EXPECT_EQ(run->report.breaker_probes, 1);
  EXPECT_EQ(run->report.breaker_closes, 1);
  EXPECT_EQ(run->report.shed_breaker, 2);
  EXPECT_EQ(run->report.degraded_runs, 1);
  EXPECT_EQ(supervisor->breaker_state(0), BreakerState::kClosed);
  const SupervisedOutcome& probe = run->outcomes[4];
  EXPECT_TRUE(probe.probe);
  EXPECT_TRUE(probe.degraded);
  EXPECT_TRUE(probe.outcome.status.ok()) << probe.outcome.status.ToString();
  EXPECT_GE(probe.outcome.best, 0);
}

TEST(ChaosSupervisorTest, RunsAreReplayable) {
  SupervisorRig rig = MakeSupervisorRig();
  rig.options.chaos.seed = 99;
  rig.options.chaos.kill_query_probability = 0.5;
  rig.options.chaos.min_kill_step = 1;
  rig.options.chaos.max_kill_step = 3;
  rig.options.shed.max_admitted = 3;

  std::vector<QuerySpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(MakeMaxSpec("t" + std::to_string(i), 300 + i));
    specs.back().weight = 1 + i % 2;
  }

  auto run_once = [&rig, &specs] {
    Result<ServiceSupervisor> supervisor =
        ServiceSupervisor::Create(rig.options);
    CROWDMAX_CHECK(supervisor.ok());
    Result<SupervisedRunResult> run = supervisor->Run(specs);
    CROWDMAX_CHECK(run.ok());
    return std::move(run).value();
  };
  const SupervisedRunResult first = run_once();
  const SupervisedRunResult second = run_once();

  EXPECT_EQ(first.report.killed, second.report.killed);
  EXPECT_EQ(first.report.recovered, second.report.recovered);
  EXPECT_EQ(first.report.shed_load, second.report.shed_load);
  EXPECT_EQ(first.report.completed, second.report.completed);
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_EQ(first.outcomes[i].outcome.status.code(),
              second.outcomes[i].outcome.status.code());
    EXPECT_EQ(first.outcomes[i].outcome.best, second.outcomes[i].outcome.best);
    EXPECT_EQ(first.outcomes[i].outcome.paid.naive,
              second.outcomes[i].outcome.paid.naive);
    EXPECT_EQ(first.outcomes[i].kills, second.outcomes[i].kills);
  }
}

}  // namespace
}  // namespace crowdmax
