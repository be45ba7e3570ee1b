// Memo pruning (core/round_engine.h, RoundSource::NamesRecurringElements;
// DESIGN.md §14): a source that names, after each round, the elements a
// later round may pair again lets the engine's private memo keep only the
// pairs of two named elements. These suites pin
//  * the differential contract — the filter on a private-memo engine
//    (which prunes) matches the same backend over a fresh SharedPairCache
//    (which keeps every pair) in candidates, paid, issued, cache hits,
//    logical steps and trace, on every backend, so no pair that can be
//    asked again is ever dropped;
//  * that a pair left without evidence is bought again when next asked,
//    as a parked one is;
//  * the engine's commit rule on a scripted source, and that shared caches
//    keep every pair;
//  * the two debug checks of the promise (death tests, debug builds only).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/resilient.h"
#include "core/round_engine.h"
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

enum class Backend { kSerial, kSerialPerCall, kParallel, kExecutor, kPipelined };

struct BackendCase {
  const char* name;
  Backend backend;
  int64_t width;  // threads (parallel) or max in flight (pipelined)
};

constexpr BackendCase kBackends[] = {
    {"serial", Backend::kSerial, 0},
    {"serial-percall", Backend::kSerialPerCall, 0},
    {"parallel1", Backend::kParallel, 1},
    {"parallel8", Backend::kParallel, 8},
    {"executor", Backend::kExecutor, 0},
    {"pipelined1", Backend::kPipelined, 1},
    {"pipelined8", Backend::kPipelined, 8},
};

struct FilterRun {
  std::vector<ElementId> candidates;
  int64_t paid = 0;
  int64_t issued = 0;
  int64_t cache_hits = 0;
  int64_t logical_steps = 0;
  int64_t shared_entries = -1;  // resolved pairs left in the shared cache
  std::string trace;
};

// Runs the filter on `backend` over a noisy comparator (a re-bought pair
// draws a fresh, possibly different answer), memoizing privately or into
// a fresh SharedPairCache.
FilterRun RunFilter(const Instance& instance, double delta,
                    const FilterOptions& options, const BackendCase& backend,
                    bool shared) {
  ThresholdComparator naive(&instance, ThresholdModel{delta, 0.1},
                            /*seed=*/4242);
  ComparatorBatchExecutor executor(&naive);
  AsyncBatchAdapter async(&executor);
  SharedPairCache cache;
  SharedPairCache* shared_cache = shared ? &cache : nullptr;
  PerCallComparator per_call(&naive);

  std::unique_ptr<RoundEngine> engine;
  switch (backend.backend) {
    case Backend::kSerial:
      engine = RoundEngine::CreateSerial(&naive, /*memoize=*/true,
                                         shared_cache);
      break;
    case Backend::kSerialPerCall:
      engine = RoundEngine::CreateSerial(&per_call, /*memoize=*/true,
                                         shared_cache);
      break;
    case Backend::kParallel: {
      Result<std::unique_ptr<RoundEngine>> created =
          RoundEngine::CreateParallel(&naive, backend.width, /*seed=*/99,
                                      /*memoize=*/true, shared_cache);
      CROWDMAX_CHECK(created.ok());
      engine = std::move(created).value();
      break;
    }
    case Backend::kExecutor: {
      Result<std::unique_ptr<RoundEngine>> created =
          RoundEngine::CreateBatched(&executor, /*memoize=*/true, shared_cache);
      CROWDMAX_CHECK(created.ok());
      engine = std::move(created).value();
      break;
    }
    case Backend::kPipelined: {
      Result<std::unique_ptr<RoundEngine>> created =
          RoundEngine::CreatePipelined(&async, backend.width,
                                       /*memoize=*/true, shared_cache);
      CROWDMAX_CHECK(created.ok());
      engine = std::move(created).value();
      break;
    }
  }

  FilterRun run;
  AlgoTrace trace;
  {
    ScopedTrace scope(&trace);
    Result<FilterResult> result =
        RunFilterOnEngine(instance.AllElements(), options, engine.get());
    CROWDMAX_CHECK(result.ok());
    CROWDMAX_CHECK(!result->partial);
    run.candidates = result->candidates;
  }
  run.paid = engine->paid();
  run.issued = engine->issued();
  run.cache_hits = engine->cache_hits();
  run.logical_steps = engine->logical_steps();
  if (shared) run.shared_entries = cache.ResolvedPairs(0);
  run.trace = trace.Summary();
  return run;
}

TEST(MemoPruningTest, PrivateMemoMatchesFullSharedCacheOnEveryBackend) {
  const Instance instance = MakeInstance(300, 61);
  const double delta = instance.DeltaForU(4);
  for (const bool groups : {false, true}) {
    for (const bool loss_counter : {false, true}) {
      FilterOptions options;
      options.u_n = instance.CountWithin(delta);
      options.memoize = true;
      options.pipeline_groups = groups;
      options.global_loss_counter = loss_counter;
      for (const BackendCase& backend : kBackends) {
        const std::string context =
            std::string(backend.name) + " groups=" + std::to_string(groups) +
            " loss_counter=" + std::to_string(loss_counter);
        const FilterRun pruned =
            RunFilter(instance, delta, options, backend, /*shared=*/false);
        const FilterRun full =
            RunFilter(instance, delta, options, backend, /*shared=*/true);
        // The memo must actually be read again, or the comparison is
        // vacuous.
        EXPECT_GT(full.cache_hits, 0) << context;
        EXPECT_EQ(pruned.candidates, full.candidates) << context;
        EXPECT_EQ(pruned.paid, full.paid) << context;
        EXPECT_EQ(pruned.issued, full.issued) << context;
        EXPECT_EQ(pruned.cache_hits, full.cache_hits) << context;
        EXPECT_EQ(pruned.logical_steps, full.logical_steps) << context;
        EXPECT_EQ(pruned.trace, full.trace) << context;
        // A shared cache keeps every pair the filter bought (the filter
        // never buys a pair twice with an answering executor).
        EXPECT_EQ(full.shared_entries, full.paid) << context;
      }
    }
  }
}

TEST(MemoPruningTest, PairsLeftWithoutEvidenceAreBoughtAgainAsParkedOnes) {
  // Dropped tasks and failed submissions leave pairs without evidence.
  // The private memo never commits them and a shared cache parks them as
  // kUnresolvedWinner; both buy such a pair again when it is next asked,
  // so the runs must agree, partial results and fault status included.
  const Instance instance = MakeInstance(300, 61);
  const double delta = instance.DeltaForU(4);
  for (const bool groups : {false, true}) {
    FilterOptions options;
    options.u_n = instance.CountWithin(delta);
    options.memoize = true;
    options.global_loss_counter = true;
    options.pipeline_groups = groups;
    struct FaultyRun {
      std::vector<ElementId> candidates;
      bool partial = false;
      std::string fault;
      int64_t paid = 0;
      int64_t cache_hits = 0;
      int64_t logical_steps = 0;
      int64_t drops = 0;
      std::string trace;
    };
    const auto run = [&](bool shared) {
      ThresholdComparator naive(&instance, ThresholdModel{delta, 0.1},
                                /*seed=*/4242);
      ComparatorBatchExecutor executor(&naive);
      InjectedFaultOptions inject;
      inject.drop_probability = 0.05;
      inject.unavailable_probability = 0.05;
      inject.seed = 17;
      Result<std::unique_ptr<FaultInjectingBatchExecutor>> faulty =
          FaultInjectingBatchExecutor::Create(&executor, inject);
      CROWDMAX_CHECK(faulty.ok());
      SharedPairCache cache;
      Result<std::unique_ptr<RoundEngine>> engine = RoundEngine::CreateBatched(
          faulty->get(), /*memoize=*/true, shared ? &cache : nullptr);
      CROWDMAX_CHECK(engine.ok());
      FaultyRun out;
      AlgoTrace trace;
      {
        ScopedTrace scope(&trace);
        Result<FilterResult> result = RunFilterOnEngine(
            instance.AllElements(), options, engine->get());
        CROWDMAX_CHECK(result.ok());
        out.candidates = result->candidates;
        out.partial = result->partial;
        out.fault = result->fault_status.ToString();
      }
      out.paid = (*engine)->paid();
      out.cache_hits = (*engine)->cache_hits();
      out.logical_steps = (*engine)->logical_steps();
      out.drops = (*faulty)->injected_drops();
      out.trace = trace.Summary();
      return out;
    };
    const FaultyRun pruned = run(/*shared=*/false);
    const FaultyRun full = run(/*shared=*/true);
    const std::string context = "groups=" + std::to_string(groups);
    EXPECT_GT(full.drops, 0) << context;
    EXPECT_GT(full.cache_hits, 0) << context;
    EXPECT_EQ(pruned.candidates, full.candidates) << context;
    EXPECT_EQ(pruned.partial, full.partial) << context;
    EXPECT_EQ(pruned.fault, full.fault) << context;
    EXPECT_EQ(pruned.paid, full.paid) << context;
    EXPECT_EQ(pruned.cache_hits, full.cache_hits) << context;
    EXPECT_EQ(pruned.logical_steps, full.logical_steps) << context;
    EXPECT_EQ(pruned.drops, full.drops) << context;
    EXPECT_EQ(pruned.trace, full.trace) << context;
  }
}

// A promising source with a fixed script: one unit per round, and the
// elements it names after each round.
class ScriptedSource : public RoundSource {
 public:
  ScriptedSource(std::vector<std::vector<ComparisonPair>> rounds,
                 std::vector<std::vector<ElementId>> named)
      : rounds_(std::move(rounds)), named_(std::move(named)) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (next_ == rounds_.size()) return false;
    RoundUnit unit;
    unit.pairs = rounds_[next_++];
    round->units.push_back(std::move(unit));
    return true;
  }
  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& /*outcome*/) override {
    return Status::OK();
  }
  bool NamesRecurringElements() const override { return true; }
  std::span<const ElementId> RecurringElements() const override {
    return named_[next_ - 1];
  }

 private:
  std::vector<std::vector<ComparisonPair>> rounds_;
  std::vector<std::vector<ElementId>> named_;
  size_t next_ = 0;
};

TEST(MemoPruningTest, CommitKeepsOnlyPairsOfTwoNamedElements) {
  const Instance instance = MakeInstance(8, 3);
  // Round 1 buys {0,1}, {2,3} and {4,5} and names 0..4: {0,1} and {2,3}
  // are kept, {4,5} is not (5 retired). Round 2 asks the kept pairs again
  // and buys {0,2} and {1,4}.
  ScriptedSource source({{{0, 1}, {2, 3}, {4, 5}},
                         {{1, 0}, {2, 3}, {0, 2}, {1, 4}}},
                        {{0, 1, 2, 3, 4}, {}});
  OracleComparator oracle(&instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&oracle, /*memoize=*/true);
  ASSERT_TRUE(engine->Drive(&source).ok());
  EXPECT_EQ(engine->issued(), 7);
  EXPECT_EQ(engine->paid(), 5);
  EXPECT_EQ(engine->cache_hits(), 2);
}

TEST(MemoPruningTest, SharedCacheKeepsEveryPairOfAPromisingSource) {
  const Instance instance = MakeInstance(8, 3);
  ScriptedSource source({{{0, 1}, {2, 3}, {4, 5}}}, {{}});
  OracleComparator oracle(&instance);
  SharedPairCache cache;
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&oracle, /*memoize=*/true, &cache);
  ASSERT_TRUE(engine->Drive(&source).ok());
  EXPECT_EQ(cache.ResolvedPairs(0), 3);
}

#ifndef NDEBUG
TEST(MemoPruningDeathTest, ReissuingARetiredElementIsRefused) {
  const Instance instance = MakeInstance(8, 3);
  EXPECT_DEATH(
      {
        // Element 2 is not named after round 1, then issued in round 2.
        ScriptedSource source({{{0, 1}, {2, 3}}, {{1, 2}}}, {{0, 1}, {}});
        OracleComparator oracle(&instance);
        std::unique_ptr<RoundEngine> engine =
            RoundEngine::CreateSerial(&oracle, /*memoize=*/true);
        (void)engine->Drive(&source);
      },
      "issued an element it retired");
}

TEST(MemoPruningDeathTest, RepeatingAPairWithinARoundIsRefused) {
  const Instance instance = MakeInstance(8, 3);
  EXPECT_DEATH(
      {
        ScriptedSource source({{{0, 1}, {1, 0}}}, {{0, 1}});
        OracleComparator oracle(&instance);
        std::unique_ptr<RoundEngine> engine =
            RoundEngine::CreateSerial(&oracle, /*memoize=*/true);
        (void)engine->Drive(&source);
      },
      "repeated a pair in a round");
}
#endif

}  // namespace
}  // namespace crowdmax
