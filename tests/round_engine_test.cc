// The RoundEngine contract (core/round_engine.h): one execution core
// behind every algorithm. These suites pin
//  * cross-backend equivalence — the serial engine, the parallel engine at
//    threads {2, 8}, and the executor-backed engine produce identical
//    results for every ported RoundSource when worker answers are
//    deterministic (the backends may only differ through RNG draw order,
//    which an oracle never consumes);
//  * the single budget enforcement point — serial and batched runs charge
//    identically around the FilterOptions::max_comparisons boundary, even
//    when memoization makes a re-grouped pair free while the worst-case
//    round gate still counts it;
//  * the engine-owned counters (paid / issued / cache_hits /
//    logical_steps) and the backend guard rails (Fork probing,
//    SupportsPartialEvidence).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/expert_max.h"
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/resilient.h"
#include "core/pair_key.h"
#include "core/round_engine.h"
#include "core/tournament.h"
#include "core/trace.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "tests/per_call_comparator.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

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

// Builds every backend over its own oracle comparator/executor so counters
// are per-run. Index 0 = serial, 1..2 = parallel {2, 8}, 3 = executor.
struct BackendRig {
  std::vector<std::unique_ptr<OracleComparator>> comparators;
  std::vector<std::unique_ptr<ComparatorBatchExecutor>> executors;
  std::vector<std::unique_ptr<RoundEngine>> engines;
  std::vector<std::string> names;
};

BackendRig MakeAllBackends(const Instance& instance, bool memoize) {
  BackendRig rig;
  rig.comparators.push_back(std::make_unique<OracleComparator>(&instance));
  rig.engines.push_back(
      RoundEngine::CreateSerial(rig.comparators.back().get(), memoize));
  rig.names.push_back("serial");
  for (int64_t threads : {2, 8}) {
    rig.comparators.push_back(std::make_unique<OracleComparator>(&instance));
    Result<std::unique_ptr<RoundEngine>> parallel =
        RoundEngine::CreateParallel(rig.comparators.back().get(), threads,
                                    /*seed=*/99, memoize);
    CROWDMAX_CHECK(parallel.ok());
    rig.engines.push_back(std::move(parallel).value());
    rig.names.push_back("threads=" + std::to_string(threads));
  }
  rig.comparators.push_back(std::make_unique<OracleComparator>(&instance));
  rig.executors.push_back(
      std::make_unique<ComparatorBatchExecutor>(rig.comparators.back().get()));
  Result<std::unique_ptr<RoundEngine>> batched =
      RoundEngine::CreateBatched(rig.executors.back().get(), memoize);
  CROWDMAX_CHECK(batched.ok());
  rig.engines.push_back(std::move(batched).value());
  rig.names.push_back("executor");
  return rig;
}

TEST(RoundEngineEquivalenceTest, FilterIdenticalAcrossAllBackends) {
  Instance instance = MakeInstance(500, 3);
  FilterOptions options;
  options.u_n = 6;
  options.memoize = true;
  options.global_loss_counter = true;

  BackendRig rig = MakeAllBackends(instance, options.memoize);
  std::vector<FilterResult> runs;
  for (std::unique_ptr<RoundEngine>& engine : rig.engines) {
    Result<FilterResult> run =
        RunFilterOnEngine(instance.AllElements(), options, engine.get());
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->partial);
    runs.push_back(*std::move(run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].candidates, runs[0].candidates)
        << rig.names[i];
    EXPECT_EQ(runs[i].rounds, runs[0].rounds) << rig.names[i];
    EXPECT_EQ(runs[i].round_sizes, runs[0].round_sizes)
        << rig.names[i];
    EXPECT_EQ(runs[i].paid_comparisons,
              runs[0].paid_comparisons)
        << rig.names[i];
    EXPECT_EQ(runs[i].issued_comparisons,
              runs[0].issued_comparisons)
        << rig.names[i];
    EXPECT_EQ(runs[i].evicted_by_loss_counter,
              runs[0].evicted_by_loss_counter)
        << rig.names[i];
  }
}

TEST(RoundEngineEquivalenceTest, TwoMaxFindIdenticalAcrossAllBackends) {
  Instance instance = MakeInstance(200, 5);
  BackendRig rig = MakeAllBackends(instance, /*memoize=*/true);
  std::vector<MaxFindResult> runs;
  for (std::unique_ptr<RoundEngine>& engine : rig.engines) {
    Result<MaxFindResult> run =
        RunTwoMaxFindOnEngine(instance.AllElements(), engine.get());
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->partial);
    runs.push_back(*std::move(run));
  }
  EXPECT_EQ(runs[0].best, instance.MaxElement());
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].best, runs[0].best) << rig.names[i];
    EXPECT_EQ(runs[i].rounds, runs[0].rounds)
        << rig.names[i];
    EXPECT_EQ(runs[i].paid_comparisons,
              runs[0].paid_comparisons)
        << rig.names[i];
    EXPECT_EQ(runs[i].issued_comparisons,
              runs[0].issued_comparisons)
        << rig.names[i];
  }
}

TEST(RoundEngineEquivalenceTest, RandomizedMaxFindIdenticalAcrossBackends) {
  Instance instance = MakeInstance(700, 7);
  RandomizedMaxFindOptions options;
  options.seed = 17;
  options.group_size_override = 20;

  // The source's own sampling RNG is seeded by options, so every backend
  // replays the same partitions, and, unmemoized on every backend, pays
  // for the same comparisons.
  BackendRig rig = MakeAllBackends(instance, /*memoize=*/false);
  std::vector<MaxFindResult> runs;
  for (std::unique_ptr<RoundEngine>& engine : rig.engines) {
    Result<MaxFindResult> run = RunRandomizedMaxFindOnEngine(
        instance.AllElements(), engine.get(), options);
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->partial);
    runs.push_back(*std::move(run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].best, runs[0].best) << rig.names[i];
    EXPECT_EQ(runs[i].rounds, runs[0].rounds)
        << rig.names[i];
    EXPECT_EQ(runs[i].issued_comparisons,
              runs[0].issued_comparisons)
        << rig.names[i];
    EXPECT_EQ(runs[i].paid_comparisons, runs[0].paid_comparisons)
        << rig.names[i];
  }
}

TEST(RoundEngineEquivalenceTest, TournamentIdenticalAcrossAllBackends) {
  Instance instance = MakeInstance(40, 11);
  BackendRig rig = MakeAllBackends(instance, /*memoize=*/false);
  std::vector<TournamentResult> runs;
  for (std::unique_ptr<RoundEngine>& engine : rig.engines) {
    Result<TournamentResult> run =
        RunTournamentOnEngine(instance.AllElements(), engine.get());
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->unresolved, 0);
    runs.push_back(*std::move(run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].wins, runs[0].wins)
        << rig.names[i];
    EXPECT_EQ(runs[i].comparisons, runs[0].comparisons)
        << rig.names[i];
  }
}

// The budget regression the refactor exists for: one enforcement point.
// With memoization on, a pair re-grouped into a later round is free (a
// cache hit), while the budget gate still prices the round at its full
// pair count. Serial and batched runs must agree exactly — candidates,
// paid, stop flag — at every budget, including right at the boundary.
TEST(RoundEngineBudgetTest, SerialAndBatchedChargeIdenticallyAtBoundary) {
  Instance instance = MakeInstance(420, 13);
  const double delta = instance.DeltaForU(9);

  ThresholdComparator::Options worker;
  worker.model = ThresholdModel{delta, 0.0};
  worker.tie_policy = TiePolicy::kPersistentArbitrary;

  FilterOptions options;
  options.u_n = instance.CountWithin(delta);
  options.memoize = true;

  // Unbudgeted reference run, to find real boundaries and to prove the
  // memoized cache actually served re-grouped pairs (issued > paid).
  ThresholdComparator probe_worker(&instance, worker, /*seed=*/14);
  Result<FilterResult> probe =
      FilterCandidates(instance.AllElements(), options, &probe_worker);
  ASSERT_TRUE(probe.ok());
  ASSERT_GT(probe->issued_comparisons, probe->paid_comparisons)
      << "instance does not exercise memoized re-grouping";
  const int64_t total = probe->paid_comparisons;

  for (int64_t budget :
       {total / 4, total / 2, total - 1, total, total + 1}) {
    if (budget < 1) continue;
    options.max_comparisons = budget;

    ThresholdComparator serial_worker(&instance, worker, /*seed=*/14);
    Result<FilterResult> serial =
        FilterCandidates(instance.AllElements(), options, &serial_worker);
    ASSERT_TRUE(serial.ok());

    ThresholdComparator batch_worker(&instance, worker, /*seed=*/14);
    ComparatorBatchExecutor executor(&batch_worker);
    Result<FilterResult> batched = FilterCandidates(
        instance.AllElements(), options, &executor);
    ASSERT_TRUE(batched.ok());

    EXPECT_EQ(batched->candidates, serial->candidates)
        << "budget=" << budget;
    EXPECT_EQ(batched->paid_comparisons, serial->paid_comparisons)
        << "budget=" << budget;
    EXPECT_EQ(batched->issued_comparisons,
              serial->issued_comparisons)
        << "budget=" << budget;
    EXPECT_EQ(batched->rounds, serial->rounds) << "budget=" << budget;
    EXPECT_EQ(batched->stopped_by_budget, serial->stopped_by_budget)
        << "budget=" << budget;
    EXPECT_LE(serial->paid_comparisons, budget) << "budget=" << budget;
  }
}

TEST(RoundEngineCountersTest, MemoizedSerialCountersReconcile) {
  Instance instance = MakeInstance(300, 19);
  OracleComparator oracle(&instance);
  const std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&oracle, /*memoize=*/true);
  FilterOptions options;
  options.u_n = 5;
  Result<FilterResult> run =
      RunFilterOnEngine(instance.AllElements(), options, engine.get());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(engine->backend(), RoundEngine::Backend::kSerial);
  EXPECT_FALSE(engine->SupportsPartialEvidence());
  // paid = comparator spend; issued = every pair the sources emitted;
  // the difference is exactly the engine cache's work.
  EXPECT_EQ(engine->paid(), oracle.num_comparisons());
  EXPECT_EQ(engine->issued(), run->issued_comparisons);
  EXPECT_EQ(engine->cache_hits(), engine->issued() - engine->paid());
  // Comparator backends predate step accounting.
  EXPECT_EQ(engine->logical_steps(), 0);
}

TEST(RoundEngineCountersTest, ExecutorBackendStepsMatchRounds) {
  Instance instance = MakeInstance(300, 23);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreateBatched(&executor, /*memoize=*/true);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->backend(), RoundEngine::Backend::kExecutor);
  EXPECT_TRUE((*engine)->SupportsPartialEvidence());
  FilterOptions options;
  options.u_n = 5;
  options.memoize = true;
  Result<FilterResult> run =
      RunFilterOnEngine(instance.AllElements(), options, engine->get());
  ASSERT_TRUE(run.ok());
  // One batch — one logical step — per filter round.
  EXPECT_EQ((*engine)->logical_steps(), run->rounds);
  EXPECT_EQ((*engine)->paid(), executor.comparisons());
}

// Cross-phase evidence sharing (DESIGN.md §11): engines created over the
// same SharedPairCache and worker-class id trade answers; different class
// ids never do.
TEST(SharedCacheTest, SecondEngineSameClassPaysOnlyMisses) {
  Instance instance = MakeInstance(24, 61);
  const std::vector<ElementId> items = instance.AllElements();
  const int64_t total = static_cast<int64_t>(items.size() * (items.size() - 1) / 2);
  SharedPairCache cache;

  // Phase 1: a full tournament buys every pair into class 1.
  OracleComparator oracle1(&instance);
  ComparatorBatchExecutor executor1(&oracle1);
  Result<std::unique_ptr<RoundEngine>> first =
      RoundEngine::CreateBatched(&executor1, /*memoize=*/true, &cache,
                                 /*cache_class=*/1);
  ASSERT_TRUE(first.ok());
  Result<TournamentResult> run1 =
      RunTournamentOnEngine(items, first->get());
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ((*first)->paid(), total);
  EXPECT_EQ(cache.ResolvedPairs(1), total);

  // Phase 2 on the same class: every pair is a hit, nothing reaches the
  // executor, and the election is identical.
  OracleComparator oracle2(&instance);
  ComparatorBatchExecutor executor2(&oracle2);
  Result<std::unique_ptr<RoundEngine>> second =
      RoundEngine::CreateBatched(&executor2, /*memoize=*/true, &cache,
                                 /*cache_class=*/1);
  ASSERT_TRUE(second.ok());
  Result<TournamentResult> run2 =
      RunTournamentOnEngine(items, second->get());
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ((*second)->issued(), total);
  EXPECT_EQ((*second)->paid(), 0);
  EXPECT_EQ((*second)->cache_hits(), total);
  EXPECT_EQ(executor2.comparisons(), 0);
  EXPECT_EQ(run2->wins, run1->wins);

  // A different worker class must not see that evidence: naive answers
  // never substitute for expert answers.
  OracleComparator oracle3(&instance);
  ComparatorBatchExecutor executor3(&oracle3);
  Result<std::unique_ptr<RoundEngine>> other_class =
      RoundEngine::CreateBatched(&executor3, /*memoize=*/true, &cache,
                                 /*cache_class=*/0);
  ASSERT_TRUE(other_class.ok());
  Result<TournamentResult> run3 =
      RunTournamentOnEngine(items, other_class->get());
  ASSERT_TRUE(run3.ok());
  EXPECT_EQ((*other_class)->paid(), total);
  EXPECT_EQ((*other_class)->cache_hits(), 0);
}

// The serial (comparator) backend and the executor backend meet in one
// cache: a Phase-1 filter run on the serial engine seeds evidence a
// Phase-2 executor engine then reuses — the FindMaxWithExperts
// single-class (simulated-expert) regime in miniature.
TEST(SharedCacheTest, SerialFilterEvidenceVisibleToExecutorEngine) {
  Instance instance = MakeInstance(80, 67);
  SharedPairCache cache;

  OracleComparator filter_oracle(&instance);
  const std::unique_ptr<RoundEngine> filter_engine = RoundEngine::CreateSerial(
      &filter_oracle, /*memoize=*/true, &cache, /*cache_class=*/0);
  FilterOptions options;
  options.u_n = 6;
  options.memoize = true;
  Result<FilterResult> filtered = RunFilterOnEngine(
      instance.AllElements(), options, filter_engine.get());
  ASSERT_TRUE(filtered.ok());
  ASSERT_GT(filtered->candidates.size(), 1u);

  // Phase 2 over the survivors, same class: the survivors met in filter
  // groups, so at least part of the tournament is already paid for.
  OracleComparator expert_oracle(&instance);
  ComparatorBatchExecutor executor(&expert_oracle);
  Result<std::unique_ptr<RoundEngine>> phase2 =
      RoundEngine::CreateBatched(&executor, /*memoize=*/true, &cache,
                                 /*cache_class=*/0);
  ASSERT_TRUE(phase2.ok());
  Result<TournamentResult> run =
      RunTournamentOnEngine(filtered->candidates, phase2->get());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->unresolved, 0);
  EXPECT_GT((*phase2)->cache_hits(), 0);
  EXPECT_EQ((*phase2)->paid(), (*phase2)->issued() - (*phase2)->cache_hits());
  EXPECT_EQ((*phase2)->paid(), executor.comparisons());
  // The cross-phase winner agrees with ground truth on an oracle crowd.
  EXPECT_EQ(filtered->candidates[IndexOfMostWins(*run)],
            instance.MaxElement());
}

// Phase 1 of the re-issue test: a full tournament over a dropping crowd
// parks some pairs as kUnresolvedWinner in `cache`'s class 0. Returns how
// many.
int64_t ParkUnresolvedPairs(const Instance& instance,
                            const std::vector<ElementId>& items,
                            SharedPairCache* cache) {
  const int64_t total =
      static_cast<int64_t>(items.size() * (items.size() - 1) / 2);
  OracleComparator faulty_oracle(&instance);
  ComparatorBatchExecutor faulty_inner(&faulty_oracle);
  InjectedFaultOptions faults;
  faults.drop_probability = 0.3;
  faults.seed = 9;
  Result<std::unique_ptr<FaultInjectingBatchExecutor>> dropping =
      FaultInjectingBatchExecutor::Create(&faulty_inner, faults);
  CROWDMAX_CHECK(dropping.ok());
  Result<std::unique_ptr<RoundEngine>> first =
      RoundEngine::CreateBatched(dropping->get(), /*memoize=*/true, cache,
                                 /*cache_class=*/0);
  CROWDMAX_CHECK(first.ok());
  Result<TournamentResult> run = RunTournamentOnEngine(items, first->get());
  CROWDMAX_CHECK(run.ok());
  EXPECT_EQ(cache->ResolvedPairs(0), total - run->unresolved);
  return run->unresolved;
}

// kUnresolvedWinner entries persist in a shared cache as "asked, no
// evidence" — the next engine re-issues exactly those pairs (and pays for
// them), never treating the sentinel as an answer. Every backend's cache
// resolve must re-buy them: the serial engine with batch generation on
// and off, the parallel engine (per-unit snapshot read, barrier merge) at
// threads 1 and 8, the batched engine and the pipelined drive. The second
// phase runs in chunked rounds so the re-buys spread over several rounds
// and the pipelined drive overlaps them.
TEST(SharedCacheTest, UnresolvedPairsReissuedByLaterEngineOnEveryBackend) {
  Instance instance = MakeInstance(16, 71);
  const std::vector<ElementId> items = instance.AllElements();
  const int64_t total = static_cast<int64_t>(items.size() * (items.size() - 1) / 2);
  TournamentEngineOptions chunked;
  chunked.chunk_pairs = 16;

  std::vector<int64_t> reference_wins;
  for (const std::string backend :
       {"serial", "serial/per-call", "parallel/1", "parallel/8", "batched",
        "pipelined"}) {
    SCOPED_TRACE(backend);
    SharedPairCache cache;
    const int64_t parked = ParkUnresolvedPairs(instance, items, &cache);
    ASSERT_GT(parked, 0) << "seed does not exercise drops";

    // Phase 2 on a healthy crowd, same cache and class: only the parked
    // pairs are re-bought; everything else is a hit. The worker answers
    // correctly (T(0, 0)) and exposes batch vote generation.
    ThresholdComparator worker(&instance, ThresholdModel{0.0, 0.0},
                               /*seed=*/3);
    ComparatorBatchExecutor executor(&worker);
    AsyncBatchAdapter async(&executor);
    PerCallComparator per_call(&worker);
    std::unique_ptr<RoundEngine> engine;
    if (backend.starts_with("serial")) {
      engine = RoundEngine::CreateSerial(
          backend == "serial" ? static_cast<Comparator*>(&worker) : &per_call,
          /*memoize=*/true, &cache, /*cache_class=*/0);
    } else if (backend.starts_with("parallel")) {
      Result<std::unique_ptr<RoundEngine>> parallel =
          RoundEngine::CreateParallel(&worker, backend == "parallel/1" ? 1 : 8,
                                      /*seed=*/99, /*memoize=*/true, &cache,
                                      /*cache_class=*/0);
      ASSERT_TRUE(parallel.ok());
      engine = std::move(parallel).value();
    } else {
      Result<std::unique_ptr<RoundEngine>> batched =
          backend == "batched"
              ? RoundEngine::CreateBatched(&executor, /*memoize=*/true, &cache,
                                           /*cache_class=*/0)
              : RoundEngine::CreatePipelined(&async, /*max_in_flight=*/4,
                                             /*memoize=*/true, &cache,
                                             /*cache_class=*/0);
      ASSERT_TRUE(batched.ok());
      engine = std::move(batched).value();
    }
    Result<TournamentResult> run =
        RunTournamentOnEngine(items, engine.get(), chunked);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->unresolved, 0);
    EXPECT_EQ(engine->issued(), total);
    EXPECT_EQ(engine->paid(), parked);
    EXPECT_EQ(engine->cache_hits(), total - parked);
    EXPECT_EQ(cache.ResolvedPairs(0), total);
    if (reference_wins.empty()) reference_wins = run->wins;
    EXPECT_EQ(run->wins, reference_wins);
  }
}

// A source that emits the same pair in two rounds while claiming the
// rounds may overlap — the CanPipelineNextRound contract violation the
// pipelined drive must reject instead of racing on the cached answer.
class OverlappingPairSource : public RoundSource {
 public:
  Result<bool> NextRound(EngineRound* round) override {
    if (emitted_ >= 2) return false;
    RoundUnit unit;
    unit.pairs.push_back({0, 1});
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

TEST(PipelinedEngineTest, OverlappingInFlightPairIsContractViolation) {
  Instance instance = MakeInstance(2, 73);
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
  EXPECT_NE(drive.status().ToString().find("still in flight"),
            std::string::npos);
}

// Depth 1 must degenerate to the synchronous executor path exactly; at
// depth > 1 the filter's disjoint groups overlap and the overlap counters
// move, with every result byte identical.
TEST(PipelinedEngineTest, PipelinedFilterMatchesBatchedAtEveryDepth) {
  Instance instance = MakeInstance(400, 79);
  FilterOptions options;
  options.u_n = 6;
  options.memoize = true;
  options.pipeline_groups = true;

  OracleComparator batched_oracle(&instance);
  ComparatorBatchExecutor batched_executor(&batched_oracle);
  Result<FilterResult> reference = FilterCandidates(
      instance.AllElements(), options, &batched_executor);
  ASSERT_TRUE(reference.ok());

  for (int64_t depth : {int64_t{1}, int64_t{8}}) {
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<FilterResult> piped = FilterCandidates(
        instance.AllElements(), options, Execution(&async, depth));
    ASSERT_TRUE(piped.ok()) << "depth=" << depth;
    EXPECT_EQ(piped->candidates, reference->candidates)
        << "depth=" << depth;
    EXPECT_EQ(piped->rounds, reference->rounds)
        << "depth=" << depth;
    EXPECT_EQ(piped->paid_comparisons,
              reference->paid_comparisons)
        << "depth=" << depth;
    EXPECT_EQ(piped->issued_comparisons,
              reference->issued_comparisons)
        << "depth=" << depth;
    EXPECT_EQ(executor.comparisons(), batched_executor.comparisons())
        << "depth=" << depth;
    EXPECT_EQ(executor.logical_steps(), batched_executor.logical_steps())
        << "depth=" << depth;
  }
}

TEST(PipelinedEngineTest, OverlapCountersObserveDepth) {
  Instance instance = MakeInstance(400, 83);
  FilterOptions options;
  options.u_n = 6;
  options.memoize = true;
  options.pipeline_groups = true;

  // Depth 1: submissions never overlap.
  {
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(&async, /*max_in_flight=*/1,
                                     /*memoize=*/true);
    ASSERT_TRUE(engine.ok());
    Result<FilterResult> run = RunFilterOnEngine(
        instance.AllElements(), options, engine->get());
    ASSERT_TRUE(run.ok());
    EXPECT_EQ((*engine)->overlapped_rounds(), 0);
    EXPECT_EQ((*engine)->max_in_flight_observed(), 1);
  }
  // Depth 8: the per-round disjoint groups keep several rounds in flight.
  {
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8,
                                     /*memoize=*/true);
    ASSERT_TRUE(engine.ok());
    Result<FilterResult> run = RunFilterOnEngine(
        instance.AllElements(), options, engine->get());
    ASSERT_TRUE(run.ok());
    EXPECT_GT((*engine)->overlapped_rounds(), 0);
    EXPECT_GT((*engine)->max_in_flight_observed(), 1);
    EXPECT_LE((*engine)->max_in_flight_observed(), 8);
  }
}

// Emits scripted rounds in order, each one unit of pairs or of players, and
// records every outcome's answers as one winner per pair in round order (a
// player unit's read off its loss matrix, row by row). Every round may
// pipeline: the scripts below keep in-flight rounds disjoint unless a test
// means to break the rule. `record_cells` asks a comparator backend for
// one trace cell per round, as the executor backends record.
class ScriptedRoundsSource : public RoundSource {
 public:
  explicit ScriptedRoundsSource(std::vector<std::vector<RoundUnit>> rounds,
                                bool record_cells = false)
      : rounds_(std::move(rounds)), record_cells_(record_cells) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (next_ >= rounds_.size()) return false;
    round->units = rounds_[next_++];
    round->span = "scripted";
    round->record_round_cell = record_cells_;
    return true;
  }
  Status ConsumeOutcome(const EngineRound& round,
                        const RoundOutcome& outcome) override {
    std::vector<ElementId>& answers = answers_.emplace_back();
    for (size_t u = 0; u < round.units.size(); ++u) {
      const std::vector<ElementId>& players = round.units[u].players;
      if (players.empty()) {
        answers.insert(answers.end(), outcome.winners[u].begin(),
                       outcome.winners[u].end());
        continue;
      }
      const LossMatrix& losses = outcome.losses[u];
      for (size_t i = 0; i < players.size(); ++i) {
        for (size_t j = i + 1; j < players.size(); ++j) {
          answers.push_back(losses.Lost(i, j)   ? players[j]
                            : losses.Lost(j, i) ? players[i]
                                                : kUnresolvedWinner);
        }
      }
    }
    paid_.push_back(outcome.paid_delta);
    return Status::OK();
  }
  bool CanPipelineNextRound() const override { return true; }

  const std::vector<std::vector<ElementId>>& answers() const {
    return answers_;
  }
  const std::vector<int64_t>& paid() const { return paid_; }

 private:
  std::vector<std::vector<RoundUnit>> rounds_;
  const bool record_cells_;
  size_t next_ = 0;
  std::vector<std::vector<ElementId>> answers_;
  std::vector<int64_t> paid_;
};

RoundUnit PairUnit(std::vector<ComparisonPair> pairs) {
  RoundUnit unit;
  unit.pairs = std::move(pairs);
  return unit;
}

// True when some entry of the cache's class-0 table is a -1 in-flight
// reservation, which no drive may leave behind.
bool HoldsReservation(SharedPairCache* cache) {
  bool reserved = false;
  cache->ForClass(0)->ForEach([&reserved](uint64_t, ElementId winner) {
    reserved = reserved || winner == -1;
  });
  return reserved;
}

// One firm round, then two predicted rounds the source confirms. The
// second repeats the first's pair {4, 5}, so it is refused at its
// confirmation, after its predecessor reserved that pair.
class OverlappingSpeculationSource : public RoundSource {
 public:
  Result<bool> NextRound(EngineRound* round) override {
    if (emitted_++ > 0) return false;
    round->units.push_back(PairUnit({{0, 1}}));
    return true;
  }
  Status ConsumeOutcome(const EngineRound&, const RoundOutcome&) override {
    return Status::OK();
  }
  bool CanSpeculateNextRound() const override { return speculated_ < 2; }
  Result<bool> SpeculateNextRound(EngineRound* round) override {
    round->units.push_back(speculated_++ == 0 ? PairUnit({{4, 5}})
                                              : PairUnit({{2, 3}, {4, 5}}));
    return true;
  }
  SpeculationVerdict ReconcileSpeculation() override {
    return SpeculationVerdict::kConfirmed;
  }
  void OnSpeculationAborted() override { aborted_ = true; }

  bool aborted() const { return aborted_; }

 private:
  int64_t emitted_ = 0;
  int64_t speculated_ = 0;
  bool aborted_ = false;
};

// A round refused by the overlap guard, firm or at its confirmation, leaves
// no reservation of its own pairs in the cache: {2, 3} was asked only by
// the refused round. A later engine on the same cache then buys {2, 3}
// instead of reading a -1 as its winner.
TEST(PipelinedEngineTest, RefusedRoundLeavesNoReservation) {
  Instance instance = MakeInstance(6, 73);
  for (const bool speculative : {false, true}) {
    SCOPED_TRACE(speculative ? "confirm path" : "firm path");
    SharedPairCache cache;
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreatePipelined(
        &async, /*max_in_flight=*/4, /*memoize=*/true, &cache,
        /*cache_class=*/0);
    ASSERT_TRUE(engine.ok());
    ScriptedRoundsSource firm({{PairUnit({{0, 1}})},
                               {PairUnit({{2, 3}, {0, 1}})}});
    OverlappingSpeculationSource predicted;
    Result<DriveResult> drive =
        speculative ? (*engine)->Drive(&predicted) : (*engine)->Drive(&firm);
    ASSERT_FALSE(drive.ok());
    EXPECT_EQ(drive.status().code(), StatusCode::kInternal);
    EXPECT_NE(drive.status().ToString().find("still in flight"),
              std::string::npos);
    if (speculative) {
      EXPECT_TRUE(predicted.aborted());
    }
    EXPECT_FALSE(HoldsReservation(&cache));
    EXPECT_FALSE(cache.ForClass(0)->Find(PackPairKey(2, 3)));

    OracleComparator later_oracle(&instance);
    std::unique_ptr<RoundEngine> later = RoundEngine::CreateSerial(
        &later_oracle, /*memoize=*/true, &cache, /*cache_class=*/0);
    ScriptedRoundsSource ask({{PairUnit({{2, 3}})}});
    ASSERT_TRUE(later->Drive(&ask).ok());
    EXPECT_EQ(ask.answers()[0][0],
              instance.value(2) > instance.value(3) ? 2 : 3);
    EXPECT_EQ(later->paid(), 1);
  }
}

// A pair asked again in one round, within a unit or across two, is bought
// once on every executor engine: one paid comparison and one cache hit per
// repeat, the same winner at every occurrence, and one trace shape on the
// synchronous engine and the pipelined one at depths 1 and 8.
TEST(PipelinedEngineTest, RepeatedPairInRoundIsBoughtOnce) {
  Instance instance = MakeInstance(8, 97);
  const std::vector<std::vector<RoundUnit>> script = {
      {PairUnit({{0, 1}, {1, 0}})},
      {PairUnit({{2, 3}, {4, 5}}), PairUnit({{5, 4}})},
      {PairUnit({{6, 7}, {7, 6}, {6, 7}})},
  };
  std::string reference_trace;
  std::vector<std::vector<ElementId>> reference_answers;
  for (const int64_t depth : {int64_t{0}, int64_t{1}, int64_t{8}}) {
    SCOPED_TRACE(depth == 0 ? "batched" : "depth " + std::to_string(depth));
    ThresholdComparator worker(&instance, ThresholdModel{0.5, 0.3},
                               /*seed=*/5);
    ComparatorBatchExecutor executor(&worker);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        depth == 0 ? RoundEngine::CreateBatched(&executor, /*memoize=*/true)
                   : RoundEngine::CreatePipelined(&async, depth,
                                                  /*memoize=*/true);
    ASSERT_TRUE(engine.ok());
    ScriptedRoundsSource source(script);
    AlgoTrace trace;
    {
      ScopedTrace scoped(&trace);
      ASSERT_TRUE((*engine)->Drive(&source).ok());
    }
    const std::vector<std::vector<ElementId>>& answers = source.answers();
    ASSERT_EQ(answers.size(), 3u);
    EXPECT_EQ(source.paid(), (std::vector<int64_t>{1, 2, 1}));
    EXPECT_EQ(answers[0][0], answers[0][1]);
    EXPECT_EQ(answers[1][1], answers[1][2]);
    EXPECT_EQ(answers[2][0], answers[2][1]);
    EXPECT_EQ(answers[2][0], answers[2][2]);
    EXPECT_EQ((*engine)->issued(), 8);
    EXPECT_EQ((*engine)->paid(), 4);
    EXPECT_EQ((*engine)->cache_hits(), 4);
    if (depth == 0) {
      reference_trace = trace.Summary();
      reference_answers = answers;
      continue;
    }
    EXPECT_EQ(trace.Summary(), reference_trace);
    EXPECT_EQ(answers, reference_answers);
  }
}

// Without memoization every listed pair is a fresh answer, on every engine:
// a pair repeated r times in a round is paid r times, and nothing is kept
// for a later round or drive. Every engine records the same trace.
TEST(UnmemoizedEngineTest, RepeatedPairInRoundIsPaidEveryTime) {
  Instance instance = MakeInstance(8, 97);
  const std::vector<std::vector<RoundUnit>> script = {
      {PairUnit({{0, 1}, {1, 0}, {0, 1}})},
      {PairUnit({{2, 3}, {4, 5}}), PairUnit({{5, 4}, {2, 3}, {6, 7}})},
  };
  std::string reference_trace;
  for (const std::string backend :
       {"serial", "parallel", "batched", "depth 1", "depth 8"}) {
    SCOPED_TRACE(backend);
    ThresholdComparator worker(&instance, ThresholdModel{0.5, 0.3},
                               /*seed=*/5);
    ComparatorBatchExecutor executor(&worker);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        backend == "serial"
            ? RoundEngine::CreateSerial(&worker, /*memoize=*/false)
        : backend == "parallel"
            ? RoundEngine::CreateParallel(&worker, /*threads=*/4, /*seed=*/1,
                                          /*memoize=*/false)
        : backend == "batched"
            ? RoundEngine::CreateBatched(&executor, /*memoize=*/false)
            : RoundEngine::CreatePipelined(&async,
                                           backend == "depth 1" ? 1 : 8,
                                           /*memoize=*/false);
    ASSERT_TRUE(engine.ok());
    AlgoTrace trace;
    {
      ScopedTrace scoped(&trace);
      ScriptedRoundsSource source(script, /*record_cells=*/true);
      ASSERT_TRUE((*engine)->Drive(&source).ok());
      EXPECT_EQ(source.paid(), (std::vector<int64_t>{3, 5}));
      EXPECT_EQ((*engine)->issued(), 8);
      EXPECT_EQ((*engine)->paid(), 8);
      EXPECT_EQ((*engine)->cache_hits(), 0);
      // The memo stayed empty: the same script again is bought in full.
      ScriptedRoundsSource again(script, /*record_cells=*/true);
      ASSERT_TRUE((*engine)->Drive(&again).ok());
      EXPECT_EQ(again.paid(), (std::vector<int64_t>{3, 5}));
      EXPECT_EQ((*engine)->cache_hits(), 0);
    }
    if (backend == "serial") {
      reference_trace = trace.Summary();
      continue;
    }
    EXPECT_EQ(trace.Summary(), reference_trace);
  }
}

// Eight disjoint rounds of 28 pairs ride a depth-8 window together, so the
// cache grows from its 64 slots while the earliest rounds are still in
// flight; their answers are stored and read back after those grows. Pair
// and player units alternate. Answers, counters and the memo match the
// synchronous executor engine's.
TEST(PipelinedEngineTest, CacheGrowsWhileRoundsAreInFlight) {
  constexpr ElementId kGroup = 8;
  Instance instance = MakeInstance(8 * kGroup, 101);
  std::vector<std::vector<RoundUnit>> script;
  for (ElementId r = 0; r < 8; ++r) {
    RoundUnit unit;
    for (ElementId i = 0; i < kGroup; ++i) {
      unit.players.push_back(r * kGroup + i);
    }
    if (r % 2 == 0) {
      for (size_t i = 0; i < unit.players.size(); ++i) {
        for (size_t j = i + 1; j < unit.players.size(); ++j) {
          unit.pairs.push_back({unit.players[j], unit.players[i]});
        }
      }
      unit.players.clear();
    }
    script.push_back({std::move(unit)});
  }

  std::vector<std::vector<ElementId>> reference;
  std::vector<std::pair<uint64_t, ElementId>> reference_memo;
  for (const int64_t depth : {int64_t{0}, int64_t{8}}) {
    SCOPED_TRACE(depth == 0 ? "batched" : "depth 8");
    SharedPairCache cache;
    ThresholdComparator worker(&instance, ThresholdModel{0.5, 0.3},
                               /*seed=*/7);
    ComparatorBatchExecutor executor(&worker);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        depth == 0 ? RoundEngine::CreateBatched(&executor,
                                                /*memoize=*/true, &cache, 0)
                   : RoundEngine::CreatePipelined(&async, depth,
                                                  /*memoize=*/true, &cache, 0);
    ASSERT_TRUE(engine.ok());
    ScriptedRoundsSource source(script);
    ASSERT_TRUE((*engine)->Drive(&source).ok());
    EXPECT_EQ((*engine)->paid(), 8 * 28);
    EXPECT_GT(cache.ForClass(0)->capacity(), 64u);
    if (depth == 0) {
      reference = source.answers();
      reference_memo = cache.ForClass(0)->SortedEntries();
      continue;
    }
    EXPECT_EQ((*engine)->max_in_flight_observed(), 8);
    EXPECT_EQ(source.answers(), reference);
    EXPECT_EQ(cache.ForClass(0)->SortedEntries(), reference_memo);
  }
}

TEST(RoundEngineGuardTest, ParallelCreationProbesFork) {
  Instance instance = MakeInstance(32, 29);
  UnforkableComparator unforkable(&instance);
  Result<std::unique_ptr<RoundEngine>> parallel =
      RoundEngine::CreateParallel(&unforkable, /*threads=*/2, /*seed=*/1,
                                  /*memoize=*/false);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parallel.status().ToString().find(
                "the parallel engine requires a forkable comparator"),
            std::string::npos);

  // The serial backend takes any comparator.
  OracleComparator oracle(&instance);
  EXPECT_NE(RoundEngine::CreateSerial(&oracle, /*memoize=*/false), nullptr);
}

}  // namespace
}  // namespace crowdmax
