// The memo of a pruning drive (core/round_engine.h; DESIGN.md §14): the
// answered pairs among the named players of each committed player unit,
// read back from the units' own loss matrices. These suites pin
//  * evidence across rounds on the executor engine: a pair faulted in one
//    round and answered in the next is a hit, with that answer, in the
//    round after, and only the unanswered pairs of a group are sent, in
//    row-major order;
//  * that every later reader finds what a pruning drive kept: a
//    non-pruning drive of player units, and rounds of pair units, pruning
//    or not, on every non-pipelined backend;
//  * the checkpoint bytes of a mid-drive snapshot on the parallel engine
//    (4 threads) and on a fault-injecting executor engine, against goldens
//    captured before the memo moved out of the pair table, and that the
//    goldens resume to the uninterrupted result;
//  * that the drive's memory follows the number of elements it names, not
//    their largest id, and that its answers and counters do not depend on
//    how the ids are numbered.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/batched.h"
#include "core/checkpoint.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/loss_matrix.h"
#include "core/resilient.h"
#include "core/round_engine.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

// Heap accounting for the memory test: every operator new of this binary
// counts its bytes while they are live, and the peak is kept. Each block
// carries its size in a 16-byte header, which keeps malloc's alignment.
namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

constexpr size_t kHeader = 16;

void* CountedAlloc(size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(block) = size;
  const int64_t live =
      g_live_bytes.fetch_add(static_cast<int64_t>(size)) +
      static_cast<int64_t>(size);
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void CountedFree(void* pointer) {
  if (pointer == nullptr) return;
  char* block = static_cast<char*>(pointer) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*reinterpret_cast<size_t*>(block)));
  std::free(block);
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* pointer) noexcept { CountedFree(pointer); }
void operator delete[](void* pointer) noexcept { CountedFree(pointer); }
void operator delete(void* pointer, size_t /*size*/) noexcept {
  CountedFree(pointer);
}
void operator delete[](void* pointer, size_t /*size*/) noexcept {
  CountedFree(pointer);
}

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

using Groups = std::vector<std::vector<ElementId>>;

// One player unit per round, with the players it names after the round;
// keeps every round's loss matrix.
class ScriptedPlayers : public RoundSource {
 public:
  ScriptedPlayers(Groups rounds, Groups named)
      : rounds_(std::move(rounds)), named_(std::move(named)) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (next_ == rounds_.size()) return false;
    round->units.emplace_back().players = rounds_[next_++];
    return true;
  }
  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    losses_.push_back(outcome.losses[0]);
    return Status::OK();
  }
  bool NamesRecurringElements() const override { return true; }
  std::span<const ElementId> RecurringElements() const override {
    return named_[next_ - 1];
  }

  const std::vector<LossMatrix>& losses() const { return losses_; }

 private:
  Groups rounds_;
  Groups named_;
  size_t next_ = 0;
  std::vector<LossMatrix> losses_;
};

// Answers every task with its higher id, except the scripted ones: a
// (batch, pair) listed in `faults` comes back unanswered, and one listed
// in `lower_wins` is won by its lower id. Keeps every batch it was sent.
class ScriptedExecutor : public BatchExecutor {
 public:
  struct Script {
    int64_t batch;
    ComparisonPair pair;
  };

  ScriptedExecutor(std::vector<Script> faults, std::vector<Script> lower_wins)
      : faults_(std::move(faults)), lower_wins_(std::move(lower_wins)) {}

  const std::vector<std::vector<ComparisonPair>>& batches() const {
    return batches_;
  }

 private:
  static bool Lists(const std::vector<Script>& scripts, int64_t batch,
                    const ComparisonPair& pair) {
    for (const Script& script : scripts) {
      if (script.batch == batch &&
          ((script.pair.first == pair.first &&
            script.pair.second == pair.second) ||
           (script.pair.first == pair.second &&
            script.pair.second == pair.first))) {
        return true;
      }
    }
    return false;
  }

  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override {
    const int64_t batch = static_cast<int64_t>(batches_.size());
    batches_.push_back(tasks);
    std::vector<BatchTaskResult> results(tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
      const auto [a, b] = tasks[t];
      const bool lower = Lists(lower_wins_, batch, tasks[t]);
      results[t].winner = lower ? std::min(a, b) : std::max(a, b);
      results[t].answered = !Lists(faults_, batch, tasks[t]);
    }
    return results;
  }

  std::vector<Script> faults_;
  std::vector<Script> lower_wins_;
  std::vector<std::vector<ComparisonPair>> batches_;
};

TEST(MemoLedgerTest, PairFaultedThenAnsweredIsAHitWithTheLaterAnswer) {
  // Round 1 leaves {0, 1} without evidence, round 2 buys it again and
  // hears that 0 won (the executor's default would say 1), and round 3
  // finds round 2's answer.
  ScriptedExecutor executor({{0, {0, 1}}}, {{1, {0, 1}}});
  Result<std::unique_ptr<RoundEngine>> created =
      RoundEngine::CreateBatched(&executor, /*memoize=*/true);
  ASSERT_TRUE(created.ok());
  RoundEngine& engine = **created;
  ScriptedPlayers source({{0, 1, 2, 3}, {2, 1, 0, 4}, {4, 0, 1, 5}},
                         {{0, 1, 2}, {0, 1, 4}, {}});
  Result<DriveResult> drive = engine.Drive(&source);
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();

  // Round 1 buys 6 pairs; round 2 finds {2, 1} and {2, 0} and buys 4;
  // round 3 finds {4, 0}, {4, 1} and {0, 1} and buys the 3 pairs with 5.
  EXPECT_EQ(engine.paid(), 13);
  EXPECT_EQ(engine.cache_hits(), 5);
  EXPECT_EQ(engine.issued(), 18);
  const std::vector<std::vector<ComparisonPair>> sent = {
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
      {{2, 4}, {1, 0}, {1, 4}, {0, 4}},
      {{4, 5}, {0, 5}, {1, 5}},
  };
  EXPECT_EQ(executor.batches(), sent);

  ASSERT_EQ(source.losses().size(), size_t{3});
  const LossMatrix& first = source.losses()[0];
  EXPECT_FALSE(first.Lost(0, 1));
  EXPECT_FALSE(first.Lost(1, 0));
  const LossMatrix& second = source.losses()[1];  // players 2, 1, 0, 4
  EXPECT_TRUE(second.Lost(1, 2));                 // 1 lost to 0
  const LossMatrix& third = source.losses()[2];   // players 4, 0, 1, 5
  EXPECT_TRUE(third.Lost(2, 1));                  // 1 lost to 0
  EXPECT_FALSE(third.Lost(1, 2));
  EXPECT_TRUE(third.Lost(1, 0));  // 0 lost to 4, from round 2
  EXPECT_TRUE(third.Lost(2, 0));  // 1 lost to 4, from round 2
  EXPECT_EQ(third.Losses(0), 1);  // 4 lost to 5 only
}

// Pairs of player units or pair units, pruning or not: the second drive's
// shape on an engine a pruning drive ran on first.
class Rounds : public RoundSource {
 public:
  Rounds(std::vector<EngineRound> rounds, bool prune)
      : rounds_(std::move(rounds)), prune_(prune) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (next_ == rounds_.size()) return false;
    *round = rounds_[next_++];
    return true;
  }
  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    outcomes_.push_back(outcome);
    return Status::OK();
  }
  bool NamesRecurringElements() const override { return prune_; }

  const std::vector<RoundOutcome>& outcomes() const { return outcomes_; }

 private:
  std::vector<EngineRound> rounds_;
  bool prune_;
  size_t next_ = 0;
  std::vector<RoundOutcome> outcomes_;
};

enum class Backend { kSerial, kParallel, kExecutor };

TEST(MemoLedgerTest, LaterDrivesFindEveryPairAPruningDriveKept) {
  // The pruning drive keeps the pairs among {0, 1, 2} (round 1) and among
  // {0, 1, 4, 5} (round 2): 3 + 6 - 1 = 8 pairs, {0, 1} twice. The noisy
  // comparator would answer a re-bought pair afresh.
  const Instance instance = MakeInstance(12, 5);
  const ThresholdModel model{1.0, 0.0};  // every pair a fair coin
  const std::vector<ComparisonPair> kept = {{0, 1}, {0, 2}, {1, 2}, {0, 4},
                                            {0, 5}, {1, 4}, {1, 5}, {4, 5}};
  for (const Backend backend :
       {Backend::kSerial, Backend::kParallel, Backend::kExecutor}) {
    SCOPED_TRACE(static_cast<int>(backend));
    ThresholdComparator naive(&instance, model, /*seed=*/77);
    ComparatorBatchExecutor executor(&naive);
    std::unique_ptr<RoundEngine> engine;
    if (backend == Backend::kSerial) {
      engine = RoundEngine::CreateSerial(&naive, /*memoize=*/true);
    } else if (backend == Backend::kParallel) {
      engine = std::move(RoundEngine::CreateParallel(&naive, 2, /*seed=*/3,
                                                     /*memoize=*/true))
                   .value();
    } else {
      engine =
          std::move(RoundEngine::CreateBatched(&executor, /*memoize=*/true))
              .value();
    }
    ScriptedPlayers pruning({{0, 1, 2, 3}, {5, 4, 1, 0, 6}},
                            {{0, 1, 2}, {0, 1, 4, 5}});
    ASSERT_TRUE(engine->Drive(&pruning).ok());
    ASSERT_EQ(engine->paid(), 6 + 10 - 1);
    // The first drive's answer to each kept pair, from its loss matrices.
    const auto answer = [&](ElementId a, ElementId b) -> ElementId {
      const std::vector<ElementId> second = {5, 4, 1, 0, 6};
      const std::vector<ElementId> first = {0, 1, 2, 3};
      for (const auto& [players, losses] :
           {std::pair(second, pruning.losses()[1]),
            std::pair(first, pruning.losses()[0])}) {
        const auto at = [&](ElementId e) {
          return std::find(players.begin(), players.end(), e) -
                 players.begin();
        };
        const size_t i = static_cast<size_t>(at(a));
        const size_t j = static_cast<size_t>(at(b));
        if (i >= players.size() || j >= players.size()) continue;
        if (losses.Lost(i, j)) return b;
        if (losses.Lost(j, i)) return a;
      }
      return kUnresolvedWinner;
    };

    // A drive without the promise, over one player unit holding every kept
    // pair and the new element 7: the 8 kept pairs are hits.
    EngineRound group;
    group.units.emplace_back().players = {7, 5, 4, 2, 1, 0};
    Rounds players({group}, /*prune=*/false);
    int64_t hits = engine->cache_hits();
    int64_t paid = engine->paid();
    ASSERT_TRUE(engine->Drive(&players).ok());
    EXPECT_EQ(engine->cache_hits() - hits, 8);
    EXPECT_EQ(engine->paid() - paid, 15 - 8);  // 7's five, {2,4}, {2,5}
    const LossMatrix& losses = players.outcomes()[0].losses[0];
    const std::vector<ElementId>& order = group.units[0].players;
    for (size_t i = 0; i < order.size(); ++i) {
      for (size_t j = i + 1; j < order.size(); ++j) {
        const ElementId kept_answer = answer(order[i], order[j]);
        if (kept_answer == kUnresolvedWinner) continue;
        EXPECT_EQ(losses.Lost(j, i), kept_answer == order[i])
            << order[i] << " vs " << order[j];
        EXPECT_EQ(losses.Lost(i, j), kept_answer == order[j])
            << order[i] << " vs " << order[j];
      }
    }

    // Rounds of pair units, with and without the promise: every kept pair
    // is a hit with the first drive's answer.
    for (const bool prune : {true, false}) {
      EngineRound listed;
      RoundUnit& unit = listed.units.emplace_back();
      for (const auto& [a, b] : kept) unit.pairs.push_back({b, a});
      Rounds pairs({listed}, prune);
      hits = engine->cache_hits();
      paid = engine->paid();
      ASSERT_TRUE(engine->Drive(&pairs).ok());
      EXPECT_EQ(engine->cache_hits() - hits, 8) << "prune=" << prune;
      EXPECT_EQ(engine->paid(), paid) << "prune=" << prune;
      const std::vector<ElementId>& winners = pairs.outcomes()[0].winners[0];
      ASSERT_EQ(winners.size(), kept.size());
      for (size_t p = 0; p < kept.size(); ++p) {
        EXPECT_EQ(winners[p], answer(kept[p].first, kept[p].second))
            << "prune=" << prune << " pair " << p;
      }
    }
  }
}

// --- mid-drive checkpoint goldens ------------------------------------------

// The filter over a noisy comparator, crashed at its second round
// boundary: the memo then holds pairs kept by two logical rounds.
struct GoldenSetup {
  Instance instance = MakeInstance(160, 11);
  FilterOptions options;
  ThresholdModel model;

  GoldenSetup() {
    const double delta = instance.DeltaForU(4);
    model = ThresholdModel{delta, 0.05};
    options.u_n = instance.CountWithin(delta);
    options.memoize = true;
  }
};

// One engine over its own comparator stack: the parallel backend at 4
// threads, or CreateBatched over a fault-injecting executor.
struct GoldenStack {
  GoldenStack(const GoldenSetup& setup, bool executor)
      : naive(&setup.instance, setup.model, /*seed=*/515), inner(&naive) {
    if (!executor) {
      engine = std::move(RoundEngine::CreateParallel(&naive, 4, /*seed=*/21,
                                                     /*memoize=*/true))
                   .value();
      return;
    }
    InjectedFaultOptions faults;
    faults.drop_probability = 0.1;
    faults.seed = 8;
    fault = std::move(FaultInjectingBatchExecutor::Create(&inner, faults))
                .value();
    engine = std::move(RoundEngine::CreateBatched(fault.get(),
                                                  /*memoize=*/true))
                 .value();
  }

  ThresholdComparator naive;
  ComparatorBatchExecutor inner;
  std::unique_ptr<FaultInjectingBatchExecutor> fault;
  std::unique_ptr<RoundEngine> engine;
};

std::string GoldenPath(bool executor) {
  return std::string(CROWDMAX_GOLDEN_DIR) +
         (executor ? "/checkpoint_v2_executor_faults.hex"
                   : "/checkpoint_v2_parallel4.hex");
}

std::string CaptureMidDrive(bool executor) {
  const GoldenSetup setup;
  GoldenStack stack(setup, executor);
  CheckpointController controller;
  controller.ArmCrashAtBoundary(2);
  stack.engine->set_checkpoint(&controller);
  Result<FilterResult> crashed = RunFilterOnEngine(
      setup.instance.AllElements(), setup.options, stack.engine.get());
  CROWDMAX_CHECK(crashed.status().code() == StatusCode::kAborted);
  CROWDMAX_CHECK(controller.has_checkpoint());
  return controller.checkpoint();
}

std::string ReadGolden(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  while (!golden.empty() && (golden.back() == '\n' || golden.back() == '\r')) {
    golden.pop_back();
  }
  return golden;
}

class MemoLedgerGoldenTest : public testing::TestWithParam<bool> {};

TEST_P(MemoLedgerGoldenTest, MidDriveCheckpointMatchesCommittedGolden) {
  const bool executor = GetParam();
  const std::string hex = CheckpointToHex(CaptureMidDrive(executor));
  if (std::getenv("CROWDMAX_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(executor));
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath(executor);
    out << hex << "\n";
    GTEST_SKIP() << "regenerated " << GoldenPath(executor);
  }
  const std::string golden = ReadGolden(GoldenPath(executor));
  ASSERT_FALSE(golden.empty())
      << GoldenPath(executor)
      << " missing; run with CROWDMAX_WRITE_GOLDEN=1 to regenerate";
  EXPECT_EQ(hex, golden);
}

TEST_P(MemoLedgerGoldenTest, GoldenResumesToTheUninterruptedResult) {
  const bool executor = GetParam();
  const GoldenSetup setup;
  GoldenStack whole(setup, executor);
  Result<FilterResult> baseline = RunFilterOnEngine(
      setup.instance.AllElements(), setup.options, whole.engine.get());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(whole.engine->cache_hits(), 0);

  Result<std::string> bytes =
      CheckpointFromHex(ReadGolden(GoldenPath(executor)));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  GoldenStack resumed(setup, executor);
  CheckpointController controller;
  controller.ResumeFrom(*bytes);
  resumed.engine->set_checkpoint(&controller);
  Result<FilterResult> rest = RunFilterOnEngine(
      setup.instance.AllElements(), setup.options, resumed.engine.get());
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(controller.restores(), 1);
  EXPECT_EQ(rest->candidates, baseline->candidates);
  EXPECT_EQ(resumed.engine->paid(), whole.engine->paid());
  EXPECT_EQ(resumed.engine->issued(), whole.engine->issued());
  EXPECT_EQ(resumed.engine->cache_hits(), whole.engine->cache_hits());
  EXPECT_EQ(resumed.engine->logical_steps(), whole.engine->logical_steps());
}

INSTANTIATE_TEST_SUITE_P(Engines, MemoLedgerGoldenTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Executor" : "Parallel4";
                         });

// --- memory follows the elements named ---------------------------------------

// Knows no instance (IdLimit() is kNoIdLimit): ranks each id by a fixed
// scramble of its offset from `base`, so runs over ids that differ only by
// their base answer alike.
class OffsetComparator : public Comparator {
 public:
  explicit OffsetComparator(ElementId base) : base_(base) {}

  std::unique_ptr<Comparator> Fork(uint64_t /*seed*/) const override {
    return std::make_unique<OffsetComparator>(base_);
  }

 private:
  ElementId DoCompare(ElementId a, ElementId b) override {
    return Rank(a) > Rank(b) ? a : b;
  }
  int64_t Rank(ElementId id) const {
    return (static_cast<int64_t>(id - base_) * 7919) % 401;
  }

  ElementId base_;
};

struct OffsetRun {
  std::vector<ElementId> candidates;  // relabelled to offsets
  int64_t paid = 0;
  int64_t cache_hits = 0;
  int64_t peak_bytes = 0;  // heap growth during the drive
};

OffsetRun RunOffsetFilter(ElementId base, Backend backend) {
  OffsetComparator comparator(base);
  ComparatorBatchExecutor executor(&comparator);
  std::unique_ptr<RoundEngine> engine;
  if (backend == Backend::kSerial) {
    engine = RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
  } else if (backend == Backend::kParallel) {
    engine = std::move(RoundEngine::CreateParallel(&comparator, 2, /*seed=*/1,
                                                   /*memoize=*/true))
                 .value();
  } else {
    engine = std::move(RoundEngine::CreateBatched(&executor, /*memoize=*/true))
                 .value();
  }
  std::vector<ElementId> items;
  for (ElementId offset = 0; offset < 400; ++offset) {
    items.push_back(base + offset);
  }
  FilterOptions options;
  options.u_n = 4;
  options.memoize = true;

  const int64_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  Result<FilterResult> result =
      RunFilterOnEngine(items, options, engine.get());
  OffsetRun run;
  run.peak_bytes = g_peak_bytes.load() - before;
  CROWDMAX_CHECK(result.ok());
  for (ElementId id : result->candidates) run.candidates.push_back(id - base);
  run.paid = engine->paid();
  run.cache_hits = engine->cache_hits();
  return run;
}

TEST(MemoLedgerTest, DriveMemoryFollowsTheElementsNamedNotTheirIds) {
  for (const Backend backend :
       {Backend::kSerial, Backend::kParallel, Backend::kExecutor}) {
    SCOPED_TRACE(static_cast<int>(backend));
    const OffsetRun dense = RunOffsetFilter(0, backend);
    ASSERT_GT(dense.cache_hits, 0);
    for (const ElementId base : {ElementId{1} << 30, ElementId{2147483000}}) {
      SCOPED_TRACE(base);
      const OffsetRun high = RunOffsetFilter(base, backend);
      EXPECT_EQ(high.candidates, dense.candidates);
      EXPECT_EQ(high.paid, dense.paid);
      EXPECT_EQ(high.cache_hits, dense.cache_hits);
      // 400 elements take well under a MiB; a map indexed by id would
      // take 128 MiB or more.
      EXPECT_LT(high.peak_bytes, int64_t{16} << 20);
    }
  }
}

}  // namespace
}  // namespace crowdmax
