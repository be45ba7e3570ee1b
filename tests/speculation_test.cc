// Speculative round pipelining (DESIGN.md §15): the adaptive Phase-2
// sources issue predicted follow-up rounds while their inputs are still in
// flight. The contract pinned here:
//
//  * Results, traces, logical steps, cache hits and paid comparisons are
//    bit-identical to the synchronous drive at every depth and thread
//    count — on the hit path *and* the misprediction path.
//  * Mispredicted spend is first-class: it lands in the engine's
//    speculation_wasted counter and the executor's cancelled tally, never
//    silently inside paid comparisons, and the MetricsAuditor reconciles
//    executor counters against trace cells plus the cancelled tally.
//  * Checkpoint/resume bit-identity holds at every quiescent boundary of a
//    speculating drive.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/checkpoint.h"
#include "core/comparator.h"
#include "core/expert_max.h"
#include "core/maxfind.h"
#include "core/multilevel.h"
#include "core/round_engine.h"
#include "core/topk.h"
#include "core/tournament.h"
#include "core/trace.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

// Candidates ordered by decreasing true value: the speculated pivot
// (lowest-indexed sample member) is always the sample's true maximum, so
// every prediction hits. Ascending order is the adversarial ordering: the
// prediction is always the sample's *minimum* and every prediction misses.
std::vector<ElementId> OrderByValue(const Instance& instance,
                                    bool descending) {
  std::vector<ElementId> items = instance.AllElements();
  std::sort(items.begin(), items.end(), [&](ElementId a, ElementId b) {
    return descending ? instance.value(a) > instance.value(b)
                      : instance.value(a) < instance.value(b);
  });
  return items;
}

struct SyncReference {
  MaxFindResult run;
  int64_t paid = 0;
  int64_t issued = 0;
  int64_t cache_hits = 0;
  int64_t engine_steps = 0;
  int64_t executor_comparisons = 0;
  int64_t executor_steps = 0;
  std::string trace;
};

SyncReference RunSyncTwoMaxFind(const Instance& instance,
                                const std::vector<ElementId>& items) {
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreateBatched(&executor, /*memoize=*/true);
  CROWDMAX_CHECK(engine.ok());
  AlgoTrace trace;
  SyncReference ref;
  {
    ScopedTrace scoped(&trace);
    TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
    Result<MaxFindResult> run = RunTwoMaxFindOnEngine(items, engine->get());
    CROWDMAX_CHECK(run.ok());
    ref.run = *std::move(run);
  }
  ref.paid = (*engine)->paid();
  ref.issued = (*engine)->issued();
  ref.cache_hits = (*engine)->cache_hits();
  ref.engine_steps = (*engine)->logical_steps();
  ref.executor_comparisons = executor.comparisons();
  ref.executor_steps = executor.logical_steps();
  ref.trace = trace.Summary();
  return ref;
}

// The full identity matrix: depths {1, 4, 8} x threads {1, 8}, hit-heavy
// and miss-heavy orderings. Everything the synchronous drive reports must
// come back bit-identical; only the speculation counters may move, and
// the executor's total spend must exceed the synchronous spend by exactly
// the wasted tally.
TEST(SpeculationIdentityTest, TwoMaxFindMatchesSyncAtAllDepthsAndThreads) {
  Instance instance = MakeInstance(140, 101);
  for (const bool descending : {true, false}) {
    const std::vector<ElementId> items = OrderByValue(instance, descending);
    const SyncReference ref = RunSyncTwoMaxFind(instance, items);

    for (const int64_t depth : {int64_t{1}, int64_t{4}, int64_t{8}}) {
      for (const int64_t threads : {int64_t{1}, int64_t{8}}) {
        SCOPED_TRACE("descending=" + std::to_string(descending) +
                     " depth=" + std::to_string(depth) +
                     " threads=" + std::to_string(threads));
        OracleComparator oracle(&instance);
        std::unique_ptr<BatchExecutor> owned;
        BatchExecutor* executor = nullptr;
        if (threads == 1) {
          owned = std::make_unique<ComparatorBatchExecutor>(&oracle);
          executor = owned.get();
        } else {
          Result<std::unique_ptr<ParallelBatchExecutor>> parallel =
              ParallelBatchExecutor::Create(&oracle, threads, /*seed=*/11,
                                            /*chunk_size=*/64);
          ASSERT_TRUE(parallel.ok());
          owned = std::move(*parallel);
          executor = owned.get();
        }
        AsyncBatchAdapter async(executor);
        Result<std::unique_ptr<RoundEngine>> engine =
            RoundEngine::CreatePipelined(&async, depth, /*memoize=*/true);
        ASSERT_TRUE(engine.ok());

        AlgoTrace trace;
        Result<MaxFindResult> run = [&]() -> Result<MaxFindResult> {
          ScopedTrace scoped(&trace);
          TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
          TwoMaxFindOptions options;
          options.speculate = true;
          return RunTwoMaxFindOnEngine(items, engine->get(), options);
        }();
        ASSERT_TRUE(run.ok()) << run.status().ToString();

        // The algorithm's observable outputs are sync-identical.
        EXPECT_EQ(run->best, ref.run.best);
        EXPECT_EQ(run->rounds, ref.run.rounds);
        EXPECT_EQ(run->paid_comparisons,
                  ref.run.paid_comparisons);
        EXPECT_EQ(run->issued_comparisons,
                  ref.run.issued_comparisons);
        EXPECT_FALSE(run->partial);

        // Engine accounting: paid carries the wasted spend on top of the
        // sync spend — and nothing else.
        const int64_t wasted = (*engine)->speculation_wasted();
        EXPECT_EQ((*engine)->paid(), ref.paid + wasted);
        EXPECT_EQ((*engine)->issued(), ref.issued);
        EXPECT_EQ((*engine)->cache_hits(), ref.cache_hits);
        EXPECT_EQ((*engine)->logical_steps(), ref.engine_steps);
        EXPECT_EQ(executor->comparisons(), ref.executor_comparisons + wasted);
        EXPECT_EQ(executor->cancelled_comparisons(), wasted);
        EXPECT_EQ(executor->logical_steps(), ref.executor_steps);
        if (threads == 1) {
          EXPECT_EQ(trace.Summary(), ref.trace);
        }

        if (depth >= 2) {
          EXPECT_GT((*engine)->speculative_rounds(), 0);
          if (descending) {
            // Every pivot prediction is the sample's true maximum.
            EXPECT_GT((*engine)->speculation_hits(), 0);
            EXPECT_EQ((*engine)->speculation_mispredicts(), 0);
            EXPECT_EQ(wasted, 0);
            EXPECT_GT((*engine)->overlapped_rounds(), 0);
          } else {
            // Every pivot prediction is the sample's minimum.
            EXPECT_EQ((*engine)->speculation_hits(), 0);
            EXPECT_GT((*engine)->speculation_mispredicts(), 0);
            EXPECT_GT(wasted, 0);
          }
        } else {
          // Depth 1 has no room to speculate.
          EXPECT_EQ((*engine)->speculative_rounds(), 0);
          EXPECT_EQ(wasted, 0);
        }
      }
    }
  }
}

// The paper's worst-case adversary (kFirstLoses answers every hard
// comparison against the first argument) with the ascending-value
// ordering: every pivot prediction misses, and the misprediction
// accounting identity paid == sync_paid + speculation_wasted must hold
// with results still bit-identical.
TEST(SpeculationAccountingTest, AdversaryMaximizesMispredictions) {
  Instance instance = MakeInstance(120, 103);
  const std::vector<ElementId> items =
      OrderByValue(instance, /*descending=*/false);
  const double delta = 0.05;

  AdversarialComparator sync_adversary(&instance, delta,
                                       AdversarialPolicy::kFirstLoses);
  ComparatorBatchExecutor sync_executor(&sync_adversary);
  Result<std::unique_ptr<RoundEngine>> sync_engine =
      RoundEngine::CreateBatched(&sync_executor, /*memoize=*/true);
  ASSERT_TRUE(sync_engine.ok());
  Result<MaxFindResult> sync_run =
      RunTwoMaxFindOnEngine(items, sync_engine->get());
  ASSERT_TRUE(sync_run.ok()) << sync_run.status().ToString();
  const int64_t sync_paid = (*sync_engine)->paid();

  AdversarialComparator adversary(&instance, delta,
                                  AdversarialPolicy::kFirstLoses);
  ComparatorBatchExecutor executor(&adversary);
  AsyncBatchAdapter async(&executor);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8,
                                   /*memoize=*/true);
  ASSERT_TRUE(engine.ok());
  TwoMaxFindOptions options;
  options.speculate = true;
  Result<MaxFindResult> run =
      RunTwoMaxFindOnEngine(items, engine->get(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run->best, sync_run->best);
  EXPECT_EQ(run->rounds, sync_run->rounds);
  EXPECT_EQ(run->paid_comparisons,
            sync_run->paid_comparisons);

  EXPECT_GT((*engine)->speculative_rounds(), 0);
  EXPECT_EQ((*engine)->speculation_hits(), 0);
  EXPECT_GT((*engine)->speculation_mispredicts(), 0);
  EXPECT_GT((*engine)->speculation_wasted(), 0);
  EXPECT_EQ((*engine)->paid(), sync_paid + (*engine)->speculation_wasted());
  EXPECT_EQ(executor.comparisons(),
            sync_executor.comparisons() + (*engine)->speculation_wasted());
  EXPECT_EQ(executor.cancelled_comparisons(),
            (*engine)->speculation_wasted());
}

// Without memoization 2-MaxFind asks pairs again, and a speculating drive
// at depth 8 still returns the synchronous answer: its spend exceeds the
// synchronous spend by exactly the wasted tally. In ascending order every
// pivot prediction misses.
TEST(SpeculationAccountingTest, UnmemoizedTwoMaxFindMatchesSync) {
  Instance instance = MakeInstance(120, 109);
  const std::vector<ElementId> items =
      OrderByValue(instance, /*descending=*/false);

  OracleComparator sync_oracle(&instance);
  ComparatorBatchExecutor sync_executor(&sync_oracle);
  Result<std::unique_ptr<RoundEngine>> sync_engine =
      RoundEngine::CreateBatched(&sync_executor, /*memoize=*/false);
  ASSERT_TRUE(sync_engine.ok());
  Result<MaxFindResult> sync_run =
      RunTwoMaxFindOnEngine(items, sync_engine->get());
  ASSERT_TRUE(sync_run.ok()) << sync_run.status().ToString();

  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);
  Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreatePipelined(
      &async, /*max_in_flight=*/8, /*memoize=*/false);
  ASSERT_TRUE(engine.ok());
  TwoMaxFindOptions options;
  options.speculate = true;
  Result<MaxFindResult> run =
      RunTwoMaxFindOnEngine(items, engine->get(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run->best, sync_run->best);
  EXPECT_EQ(run->rounds, sync_run->rounds);
  EXPECT_EQ(run->paid_comparisons, sync_run->paid_comparisons);
  EXPECT_EQ(run->issued_comparisons, sync_run->issued_comparisons);
  EXPECT_EQ((*engine)->cache_hits(), 0);
  EXPECT_GT((*engine)->speculation_mispredicts(), 0);
  const int64_t wasted = (*engine)->speculation_wasted();
  EXPECT_GT(wasted, 0);
  EXPECT_EQ((*engine)->paid(), (*sync_engine)->paid() + wasted);
  EXPECT_EQ(executor.cancelled_comparisons(), wasted);
}

// One firm round {0, 1}, then a predicted round {0, 1}, {2, 3}, {2, 3}
// that the source rejects.
class MispredictingSource : public RoundSource {
 public:
  Result<bool> NextRound(EngineRound* round) override {
    if (emitted_++ > 0) return false;
    round->units.emplace_back().pairs = {{0, 1}};
    return true;
  }
  Status ConsumeOutcome(const EngineRound&, const RoundOutcome&) override {
    return Status::OK();
  }
  bool CanSpeculateNextRound() const override { return !speculated_; }
  Result<bool> SpeculateNextRound(EngineRound* round) override {
    speculated_ = true;
    round->units.emplace_back().pairs = {{0, 1}, {2, 3}, {2, 3}};
    return true;
  }
  SpeculationVerdict ReconcileSpeculation() override {
    return SpeculationVerdict::kMispredicted;
  }

 private:
  int64_t emitted_ = 0;
  bool speculated_ = false;
};

// A mispredicted round is charged what its submission would have bought:
// on an unmemoized engine every listed pair, repeats included; on a
// memoizing one each pair it does not hold, once.
TEST(SpeculationAccountingTest, MispredictedRoundChargesWhatItWouldBuy) {
  Instance instance = MakeInstance(8, 113);
  for (const bool memoize : {false, true}) {
    SCOPED_TRACE(memoize ? "memoized" : "unmemoized");
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8, memoize);
    ASSERT_TRUE(engine.ok());
    MispredictingSource source;
    ASSERT_TRUE((*engine)->Drive(&source).ok());
    EXPECT_EQ((*engine)->speculation_mispredicts(), 1);
    const int64_t wasted = memoize ? 1 : 3;
    EXPECT_EQ((*engine)->speculation_wasted(), wasted);
    EXPECT_EQ((*engine)->paid(), 1 + wasted);
    EXPECT_EQ(executor.cancelled_comparisons(), wasted);
  }
}

// Trace reconciliation: cancelled speculative work never lands in a trace
// cell, so the executor's comparison counter equals trace-dispatched plus
// the cancelled tally — the ExpectDispatchedWithCancelled contract.
TEST(SpeculationAccountingTest, MetricsAuditorReconcilesCancelledSpend) {
  Instance instance = MakeInstance(120, 107);
  const std::vector<ElementId> items =
      OrderByValue(instance, /*descending=*/false);

  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);

  AlgoTrace trace;
  {
    ScopedTrace scoped(&trace);
    // TwoMaxFind bills no class itself; its caller opens the span.
    TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
    TwoMaxFindOptions options;
    options.speculate = true;
    Result<MaxFindResult> run =
        TwoMaxFind(items, Execution(&async, /*max_in_flight=*/8), options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }
  ASSERT_GT(executor.cancelled_comparisons(), 0)
      << "ordering does not exercise mispredictions";

  // The raw dispatched tally is short by exactly the cancelled count...
  EXPECT_EQ(trace.TotalsFor(TraceWorkerClass::kExpert).dispatched,
            executor.comparisons() - executor.cancelled_comparisons());

  // ...and the auditor closes the gap; every dispatched instance still
  // reconciles with its outcome classes cell by cell.
  MetricsAuditor auditor(&trace);
  auditor.ExpectDispatchedWithCancelled(TraceWorkerClass::kExpert,
                                        executor.comparisons(),
                                        executor.cancelled_comparisons());
  EXPECT_TRUE(auditor.Check().ok()) << auditor.Check().ToString();

  MetricsAuditor naive_auditor(&trace);
  naive_auditor.ExpectDispatched(TraceWorkerClass::kExpert,
                                 executor.comparisons());
  EXPECT_FALSE(naive_auditor.Check().ok())
      << "cancelled spend leaked into trace cells";
}

// Kill-and-resume at every quiescent boundary of a speculating pipelined
// drive: the resumed run must reproduce the uninterrupted run bit for
// bit, speculation counters included.
TEST(SpeculationCheckpointTest, KillResumeBitIdentityAtEveryBoundary) {
  Instance instance = MakeInstance(90, 109);
  // Mixed ordering: both hits and mispredictions occur across the run.
  const std::vector<ElementId> items = instance.AllElements();
  TwoMaxFindOptions options;
  options.speculate = true;

  struct Baseline {
    MaxFindResult run;
    int64_t paid = 0;
    int64_t wasted = 0;
    int64_t hits = 0;
    int64_t mispredicts = 0;
    int64_t comparator_spend = 0;
  } baseline;
  {
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8,
                                     /*memoize=*/true);
    ASSERT_TRUE(engine.ok());
    Result<MaxFindResult> run =
        RunTwoMaxFindOnEngine(items, engine->get(), options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    baseline.run = *std::move(run);
    baseline.paid = (*engine)->paid();
    baseline.wasted = (*engine)->speculation_wasted();
    baseline.hits = (*engine)->speculation_hits();
    baseline.mispredicts = (*engine)->speculation_mispredicts();
    baseline.comparator_spend = oracle.num_comparisons();
  }

  int64_t boundaries_exercised = 0;
  for (int64_t boundary = 1;; ++boundary) {
    SCOPED_TRACE("crash_boundary=" + std::to_string(boundary));
    std::string snapshot;
    {
      OracleComparator oracle(&instance);
      ComparatorBatchExecutor executor(&oracle);
      AsyncBatchAdapter async(&executor);
      Result<std::unique_ptr<RoundEngine>> engine =
          RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8,
                                       /*memoize=*/true);
      ASSERT_TRUE(engine.ok());
      CheckpointController controller;
      controller.ArmCrashAtBoundary(boundary);
      (*engine)->set_checkpoint(&controller);
      Result<MaxFindResult> crashed =
          RunTwoMaxFindOnEngine(items, engine->get(), options);
      if (crashed.ok()) break;  // Ran out of boundaries: matrix complete.
      ASSERT_EQ(crashed.status().code(), StatusCode::kAborted);
      ASSERT_TRUE(controller.has_checkpoint());
      snapshot = controller.checkpoint();
    }
    ++boundaries_exercised;

    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8,
                                     /*memoize=*/true);
    ASSERT_TRUE(engine.ok());
    CheckpointController controller;
    controller.ResumeFrom(snapshot);
    (*engine)->set_checkpoint(&controller);
    Result<MaxFindResult> resumed =
        RunTwoMaxFindOnEngine(items, engine->get(), options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(controller.restores(), 1);

    EXPECT_EQ(resumed->best, baseline.run.best);
    EXPECT_EQ(resumed->rounds, baseline.run.rounds);
    EXPECT_EQ(resumed->paid_comparisons,
              baseline.run.paid_comparisons);
    EXPECT_EQ(resumed->issued_comparisons,
              baseline.run.issued_comparisons);
    EXPECT_EQ((*engine)->paid(), baseline.paid);
    EXPECT_EQ((*engine)->speculation_wasted(), baseline.wasted);
    EXPECT_EQ((*engine)->speculation_hits(), baseline.hits);
    EXPECT_EQ((*engine)->speculation_mispredicts(), baseline.mispredicts);
    EXPECT_EQ(oracle.num_comparisons(), baseline.comparator_spend);
  }
  EXPECT_GE(boundaries_exercised, 2)
      << "instance too small to exercise mid-run boundaries";
}

// Chunked tournaments: identical tallies in the single-round, chunked
// synchronous and chunked pipelined shapes; the chunked pipelined drive
// actually overlaps rounds.
TEST(ChunkedTournamentTest, ChunkedMatchesSingleRoundAndPipelines) {
  Instance instance = MakeInstance(60, 113);
  const std::vector<ElementId> items = instance.AllElements();
  TournamentEngineOptions chunked;
  chunked.chunk_pairs = 100;

  OracleComparator single_oracle(&instance);
  ComparatorBatchExecutor single_executor(&single_oracle);
  Result<std::unique_ptr<RoundEngine>> single_engine =
      RoundEngine::CreateBatched(&single_executor, /*memoize=*/true);
  ASSERT_TRUE(single_engine.ok());
  Result<TournamentResult> single =
      RunTournamentOnEngine(items, single_engine->get());
  ASSERT_TRUE(single.ok());

  OracleComparator sync_oracle(&instance);
  ComparatorBatchExecutor sync_executor(&sync_oracle);
  Result<std::unique_ptr<RoundEngine>> sync_engine =
      RoundEngine::CreateBatched(&sync_executor, /*memoize=*/true);
  ASSERT_TRUE(sync_engine.ok());
  Result<TournamentResult> sync =
      RunTournamentOnEngine(items, sync_engine->get(), chunked);
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(sync->wins, single->wins);
  EXPECT_EQ(sync->comparisons, single->comparisons);
  EXPECT_EQ(sync->unresolved, 0);

  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8,
                                   /*memoize=*/true);
  ASSERT_TRUE(engine.ok());
  Result<TournamentResult> piped =
      RunTournamentOnEngine(items, engine->get(), chunked);
  ASSERT_TRUE(piped.ok());
  EXPECT_EQ(piped->wins, single->wins);
  EXPECT_EQ(piped->comparisons, single->comparisons);
  EXPECT_EQ((*engine)->paid(), (*sync_engine)->paid());
  EXPECT_EQ(executor.comparisons(), sync_executor.comparisons());
  EXPECT_EQ(executor.logical_steps(), sync_executor.logical_steps());
  EXPECT_GT((*engine)->overlapped_rounds(), 0);
  EXPECT_EQ((*engine)->speculation_wasted(), 0);
}

// Randomized max-find with one engine round per group: identical results
// in the legacy all-groups-in-one-round shape, the grouped synchronous
// shape and the grouped pipelined shape.
TEST(GroupedRandomizedTest, GroupedMatchesLegacyAndPipelines) {
  Instance instance = MakeInstance(120, 127);
  const std::vector<ElementId> items = instance.AllElements();
  RandomizedMaxFindOptions legacy_options;
  legacy_options.seed = 5;
  legacy_options.group_size_override = 12;
  RandomizedMaxFindOptions grouped_options = legacy_options;
  grouped_options.pipeline_groups = true;

  OracleComparator legacy_oracle(&instance);
  ComparatorBatchExecutor legacy_executor(&legacy_oracle);
  Result<std::unique_ptr<RoundEngine>> legacy_engine =
      RoundEngine::CreateBatched(&legacy_executor, /*memoize=*/true);
  ASSERT_TRUE(legacy_engine.ok());
  Result<MaxFindResult> legacy = RunRandomizedMaxFindOnEngine(
      items, legacy_engine->get(), legacy_options);
  ASSERT_TRUE(legacy.ok());

  OracleComparator sync_oracle(&instance);
  ComparatorBatchExecutor sync_executor(&sync_oracle);
  Result<std::unique_ptr<RoundEngine>> sync_engine =
      RoundEngine::CreateBatched(&sync_executor, /*memoize=*/true);
  ASSERT_TRUE(sync_engine.ok());
  Result<MaxFindResult> sync = RunRandomizedMaxFindOnEngine(
      items, sync_engine->get(), grouped_options);
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(sync->best, legacy->best);
  EXPECT_EQ(sync->rounds, legacy->rounds);
  EXPECT_EQ(sync->issued_comparisons,
            legacy->issued_comparisons);
  EXPECT_EQ(sync->paid_comparisons, legacy->paid_comparisons);

  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8,
                                   /*memoize=*/true);
  ASSERT_TRUE(engine.ok());
  Result<MaxFindResult> piped = RunRandomizedMaxFindOnEngine(
      items, engine->get(), grouped_options);
  ASSERT_TRUE(piped.ok());
  EXPECT_EQ(piped->best, legacy->best);
  EXPECT_EQ(piped->rounds, legacy->rounds);
  EXPECT_EQ(piped->issued_comparisons,
            legacy->issued_comparisons);
  EXPECT_EQ(piped->paid_comparisons,
            legacy->paid_comparisons);
  EXPECT_EQ((*engine)->paid(), (*sync_engine)->paid());
  EXPECT_GT((*engine)->overlapped_rounds(), 0);
}

// A source that emits the same pair in overlapping rounds: the engine's
// contract-violation error must carry the packed pair key and the source
// round index so the offending emission is identifiable.
class OverlappingPairSource : public RoundSource {
 public:
  Result<bool> NextRound(EngineRound* round) override {
    if (emitted_ >= 2) return false;
    RoundUnit unit;
    unit.pairs.push_back({2, 5});
    round->units.push_back(std::move(unit));
    ++emitted_;
    return true;
  }
  Status ConsumeOutcome(const EngineRound&, const RoundOutcome&) override {
    return Status::OK();
  }
  bool CanPipelineNextRound() const override { return true; }

 private:
  int64_t emitted_ = 0;
};

TEST(SpeculationDiagnosticsTest, OverlapErrorNamesPairKeyAndRoundIndex) {
  Instance instance = MakeInstance(8, 131);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreatePipelined(&async, /*max_in_flight=*/4,
                                   /*memoize=*/true);
  ASSERT_TRUE(engine.ok());

  OverlappingPairSource source;
  Result<DriveResult> drive = (*engine)->Drive(&source);
  ASSERT_FALSE(drive.ok());
  EXPECT_EQ(drive.status().code(), StatusCode::kInternal);
  const std::string message = drive.status().ToString();
  EXPECT_NE(message.find("RoundPairKey"), std::string::npos) << message;
  EXPECT_NE(message.find("{2, 5}"), std::string::npos) << message;
  EXPECT_NE(message.find("source round index 1"), std::string::npos)
      << message;
}

// The composed entry points: pipelined top-k (chunked expert tournament)
// and the pipelined cascade (speculating 2-MaxFind final) must reproduce
// their batched counterparts exactly.
TEST(PipelinedCompositionTest, TopKMatchesBatched) {
  Instance instance = MakeInstance(150, 137);
  const std::vector<ElementId> items = instance.AllElements();
  TopKOptions options;
  options.k = 3;
  options.filter.u_n = 4;
  options.filter.pipeline_groups = true;
  options.expert_chunk_pairs = 40;

  OracleComparator batched_naive_oracle(&instance);
  OracleComparator batched_expert_oracle(&instance);
  ComparatorBatchExecutor batched_naive(&batched_naive_oracle);
  ComparatorBatchExecutor batched_expert(&batched_expert_oracle);
  Result<TopKResult> batched =
      FindTopKWithExperts(items, &batched_naive, &batched_expert, options);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  OracleComparator naive_oracle(&instance);
  OracleComparator expert_oracle(&instance);
  ComparatorBatchExecutor naive_executor(&naive_oracle);
  ComparatorBatchExecutor expert_executor(&expert_oracle);
  AsyncBatchAdapter naive_async(&naive_executor);
  AsyncBatchAdapter expert_async(&expert_executor);
  Result<TopKResult> piped = FindTopKWithExperts(
      items, Execution(&naive_async, 8), Execution(&expert_async, 8), options);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();

  EXPECT_EQ(piped->top, batched->top);
  EXPECT_EQ(piped->candidates, batched->candidates);
  EXPECT_EQ(piped->paid.naive, batched->paid.naive);
  EXPECT_EQ(piped->paid.expert, batched->paid.expert);
  EXPECT_EQ(piped->filter_rounds, batched->filter_rounds);
  EXPECT_FALSE(piped->partial);
}

TEST(PipelinedCompositionTest, MultilevelMatchesBatched) {
  Instance instance = MakeInstance(150, 139);
  const std::vector<ElementId> items = instance.AllElements();
  MultilevelOptions options;
  options.filter_template.pipeline_groups = true;
  options.final_phase = Phase2Algorithm::kTwoMaxFind;
  options.two_maxfind.speculate = true;

  OracleComparator batched_naive_oracle(&instance);
  OracleComparator batched_expert_oracle(&instance);
  ComparatorBatchExecutor batched_naive(&batched_naive_oracle);
  ComparatorBatchExecutor batched_expert(&batched_expert_oracle);
  std::vector<WorkerClassSpec> batched_classes(2);
  batched_classes[0].execution = &batched_naive;
  batched_classes[0].u = 6;
  batched_classes[0].cost_per_comparison = 1.0;
  batched_classes[1].execution = &batched_expert;
  batched_classes[1].cost_per_comparison = 4.0;
  Result<MultilevelResult> batched =
      FindMaxMultilevel(items, batched_classes, options);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  OracleComparator naive_oracle(&instance);
  OracleComparator expert_oracle(&instance);
  ComparatorBatchExecutor naive_executor(&naive_oracle);
  ComparatorBatchExecutor expert_executor(&expert_oracle);
  AsyncBatchAdapter naive_async(&naive_executor);
  AsyncBatchAdapter expert_async(&expert_executor);
  std::vector<WorkerClassSpec> classes(2);
  classes[0].execution = Execution(&naive_async, 8);
  classes[0].u = 6;
  classes[0].cost_per_comparison = 1.0;
  classes[1].execution = Execution(&expert_async, 8);
  classes[1].cost_per_comparison = 4.0;
  Result<MultilevelResult> piped =
      FindMaxMultilevel(items, classes, options);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();

  EXPECT_EQ(piped->best, batched->best);
  EXPECT_EQ(piped->paid_per_class, batched->paid_per_class);
  EXPECT_EQ(piped->candidates_per_level,
            batched->candidates_per_level);
  EXPECT_EQ(piped->total_cost, batched->total_cost);
  EXPECT_FALSE(piped->partial);
}

}  // namespace
}  // namespace crowdmax
