// Player units (core/round_engine.h, RoundUnit::players; DESIGN.md §10,
// §14): a unit that names an all-play-all group instead of listing its
// pairs, answered into a LossMatrix. These suites pin
//  * equivalence on every backend: a round of player units matches the
//    same pairs issued as pair units to an identically seeded engine in
//    answers, paid, issued, cache hits and unresolved count, with and
//    without a pruning promise, and a faulted pair sets neither bit;
//  * that co-play signatures are never trusted over a memo the drive did
//    not write: a resumed drive and a second drive on one engine find the
//    memo hits the uninterrupted run finds;
//  * the kind and disjointness rules (death tests, debug builds only).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/checkpoint.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/loss_matrix.h"
#include "core/resilient.h"
#include "core/round_engine.h"
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

using Groups = std::vector<std::vector<ElementId>>;

// Three logical rounds of disjoint groups over ids 0..23. Later rounds
// regroup players that met before, listed in a different order, so the
// memo answers some pairs with their arguments swapped.
std::vector<Groups> SmallSchedule() {
  return {
      {{0, 1, 2, 3, 4, 5, 6, 7},
       {8, 9, 10, 11, 12, 13, 14, 15},
       {16, 17, 18, 19, 20, 21, 22, 23}},
      {{2, 1, 0, 8, 9, 10, 16, 17},
       {3, 4, 5, 11, 12, 13, 18, 19},
       {6, 7, 14, 15, 20, 21, 22, 23}},
      {{10, 9, 8, 2, 1, 0, 23, 22, 21},
       {19, 18, 13, 12, 11, 5, 4, 3, 20},
       {6, 7, 14, 15, 16, 17}},
  };
}

// Groups of 64, 65 and 71 players over ids 0..199, then the ids regrouped
// by residue mod 3, last first: loss-matrix rows span several words, and
// the memo's hits fall on both sides of word boundaries.
std::vector<Groups> LargeSchedule() {
  Groups first(3);
  Groups second(3);
  for (ElementId id = 0; id < 200; ++id) {
    first[id < 64 ? 0 : id < 129 ? 1 : 2].push_back(id);
    second[static_cast<size_t>(id % 3)].insert(
        second[static_cast<size_t>(id % 3)].begin(), id);
  }
  return {first, second};
}

// Emits a schedule as player units, or as the same pairs in pair units.
// With `granular`, each group is its own engine round and the groups of a
// logical round may be pipelined (they are disjoint). Every answer is
// recorded in pair order, kUnresolvedWinner for a pair without evidence.
class GroupSource : public RoundSource {
 public:
  GroupSource(std::vector<Groups> rounds, bool players, bool granular,
              bool promise)
      : rounds_(std::move(rounds)),
        players_(players),
        granular_(granular),
        promise_(promise) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (round_ == rounds_.size()) return false;
    const Groups& groups = rounds_[round_];
    const size_t end = granular_ ? group_ + 1 : groups.size();
    for (size_t g = group_; g < end; ++g) {
      RoundUnit& unit = round->units.emplace_back();
      if (players_) {
        unit.players = groups[g];
        continue;
      }
      for (size_t i = 0; i < groups[g].size(); ++i) {
        for (size_t j = i + 1; j < groups[g].size(); ++j) {
          unit.pairs.push_back({groups[g][i], groups[g][j]});
        }
      }
    }
    emitted_.assign(groups.begin() + static_cast<ptrdiff_t>(group_),
                    groups.begin() + static_cast<ptrdiff_t>(end));
    group_ = end;
    if (group_ == groups.size()) {
      ++round_;
      group_ = 0;
    }
    return true;
  }

  Status ConsumeOutcome(const EngineRound& round,
                        const RoundOutcome& outcome) override {
    for (size_t u = 0; u < round.units.size(); ++u) {
      const RoundUnit& unit = round.units[u];
      if (unit.players.empty()) {
        answers_.insert(answers_.end(), outcome.winners[u].begin(),
                        outcome.winners[u].end());
        continue;
      }
      const LossMatrix& losses = outcome.losses[u];
      EXPECT_EQ(losses.size(), unit.players.size());
      for (size_t i = 0; i < unit.players.size(); ++i) {
        for (size_t j = i + 1; j < unit.players.size(); ++j) {
          // At most one bit per pair; neither for a pair without evidence.
          EXPECT_FALSE(losses.Lost(i, j) && losses.Lost(j, i));
          answers_.push_back(losses.Lost(i, j)   ? unit.players[j]
                             : losses.Lost(j, i) ? unit.players[i]
                                                 : kUnresolvedWinner);
        }
      }
    }
    unresolved_ += outcome.unresolved;
    named_.clear();
    for (const std::vector<ElementId>& group : emitted_) {
      named_.insert(named_.end(), group.begin(), group.end());
    }
    return Status::OK();
  }

  bool CanPipelineNextRound() const override {
    return granular_ && group_ > 0;
  }
  bool NamesRecurringElements() const override { return promise_; }
  std::span<const ElementId> RecurringElements() const override {
    return named_;
  }

  const std::vector<ElementId>& answers() const { return answers_; }
  int64_t unresolved() const { return unresolved_; }

 private:
  const std::vector<Groups> rounds_;
  const bool players_;
  const bool granular_;
  const bool promise_;
  size_t round_ = 0;
  size_t group_ = 0;
  Groups emitted_;
  std::vector<ElementId> named_;
  std::vector<ElementId> answers_;
  int64_t unresolved_ = 0;
};

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
    {"parallel4", Backend::kParallel, 4},
    {"executor-faulty", Backend::kExecutor, 0},
    {"pipelined1", Backend::kPipelined, 1},
    {"pipelined8", Backend::kPipelined, 8},
};

struct ScheduleRun {
  std::vector<ElementId> answers;
  int64_t paid = 0;
  int64_t issued = 0;
  int64_t cache_hits = 0;
  int64_t unresolved = 0;
};

// Drives the schedule on a fresh, identically seeded stack over a noisy
// comparator, so a pair bought twice could come back different.
ScheduleRun Drive(const Instance& instance, const std::vector<Groups>& rounds,
                  const BackendCase& backend, bool players, bool promise) {
  ThresholdComparator naive(
      &instance, ThresholdModel{instance.DeltaForU(instance.size() / 2), 0.1},
      /*seed=*/77);
  ComparatorBatchExecutor executor(&naive);
  InjectedFaultOptions inject;
  inject.drop_probability = 0.1;
  inject.unavailable_probability = 0.1;
  inject.seed = 5;
  Result<std::unique_ptr<FaultInjectingBatchExecutor>> faulty =
      FaultInjectingBatchExecutor::Create(&executor, inject);
  CROWDMAX_CHECK(faulty.ok());
  AsyncBatchAdapter async(&executor);
  PerCallComparator per_call(&naive);

  std::unique_ptr<RoundEngine> engine;
  switch (backend.backend) {
    case Backend::kSerial:
      engine = RoundEngine::CreateSerial(&naive, /*memoize=*/true);
      break;
    case Backend::kSerialPerCall:
      engine = RoundEngine::CreateSerial(&per_call, /*memoize=*/true);
      break;
    case Backend::kParallel: {
      Result<std::unique_ptr<RoundEngine>> created =
          RoundEngine::CreateParallel(&naive, backend.width, /*seed=*/99,
                                      /*memoize=*/true);
      CROWDMAX_CHECK(created.ok());
      engine = std::move(created).value();
      break;
    }
    case Backend::kExecutor: {
      Result<std::unique_ptr<RoundEngine>> created =
          RoundEngine::CreateBatched(faulty->get(), /*memoize=*/true);
      CROWDMAX_CHECK(created.ok());
      engine = std::move(created).value();
      break;
    }
    case Backend::kPipelined: {
      Result<std::unique_ptr<RoundEngine>> created =
          RoundEngine::CreatePipelined(&async, backend.width, /*memoize=*/true);
      CROWDMAX_CHECK(created.ok());
      engine = std::move(created).value();
      break;
    }
  }
  GroupSource source(rounds, players, backend.backend == Backend::kPipelined,
                     promise);
  CROWDMAX_CHECK(engine->Drive(&source).ok());
  return ScheduleRun{source.answers(), engine->paid(), engine->issued(),
             engine->cache_hits(), source.unresolved()};
}

TEST(PlayerUnitTest, MatchesTheSamePairsAsPairUnitsOnEveryBackend) {
  struct Case {
    const char* name;
    int64_t n;
    std::vector<Groups> rounds;
  };
  const Case cases[] = {{"small", 24, SmallSchedule()},
                        {"large", 200, LargeSchedule()}};
  for (const Case& schedule : cases) {
    const Instance instance = MakeInstance(schedule.n, 8);
    int64_t pairs_per_run = 0;
    for (const Groups& groups : schedule.rounds) {
      for (const std::vector<ElementId>& group : groups) {
        const int64_t k = static_cast<int64_t>(group.size());
        pairs_per_run += k * (k - 1) / 2;
      }
    }
    for (const bool promise : {false, true}) {
      for (const BackendCase& backend : kBackends) {
        const std::string context = std::string(schedule.name) + " " +
                                    backend.name +
                                    " promise=" + std::to_string(promise);
        const ScheduleRun pairs = Drive(instance, schedule.rounds, backend,
                                        /*players=*/false, promise);
        const ScheduleRun players = Drive(instance, schedule.rounds, backend,
                                          /*players=*/true, promise);
        EXPECT_EQ(pairs.issued, pairs_per_run) << context;
        // Regrouped pairs must be answered by the memo, or the comparison
        // of the two memo paths is vacuous.
        EXPECT_GT(pairs.cache_hits, 0) << context;
        EXPECT_EQ(players.answers, pairs.answers) << context;
        EXPECT_EQ(players.paid, pairs.paid) << context;
        EXPECT_EQ(players.issued, pairs.issued) << context;
        EXPECT_EQ(players.cache_hits, pairs.cache_hits) << context;
        EXPECT_EQ(players.unresolved, pairs.unresolved) << context;
        if (backend.backend == Backend::kExecutor) {
          EXPECT_GT(players.unresolved, 0) << context;
        }
      }
    }
  }
}

TEST(PlayerUnitTest, RefusedPairIsATypedErrorOnTheComparatorBackends) {
  // Ids 20..23 of the schedule lie outside a 20-element instance, so the
  // worker model refuses {16, 20}, the first such pair in unit order.
  const Instance instance = MakeInstance(20, 8);
  for (const bool players : {false, true}) {
    for (const int64_t threads : {0, 1, 4}) {
      const std::string context = "players=" + std::to_string(players) +
                                  " threads=" + std::to_string(threads);
      ThresholdComparator naive(&instance,
                                ThresholdModel{instance.DeltaForU(5), 0.1},
                                /*seed=*/77);
      std::unique_ptr<RoundEngine> engine;
      if (threads == 0) {
        engine = RoundEngine::CreateSerial(&naive, /*memoize=*/true);
      } else {
        Result<std::unique_ptr<RoundEngine>> created =
            RoundEngine::CreateParallel(&naive, threads, /*seed=*/99,
                                        /*memoize=*/true);
        ASSERT_TRUE(created.ok());
        engine = std::move(created).value();
      }
      GroupSource source(SmallSchedule(), players, /*granular=*/false,
                         /*promise=*/false);
      const Result<DriveResult> drive = engine->Drive(&source);
      EXPECT_EQ(drive.status().code(), StatusCode::kInvalidArgument)
          << context;
      EXPECT_NE(drive.status().message().find("{16, 20}"), std::string::npos)
          << context << ": " << drive.status().ToString();
    }
  }
}

// Forwards to a worker model and counts the engine's calls into its batch
// interface; its forks share the counts (pool threads, hence atomics).
class CountingBatchComparator : public Comparator, public VoteBatchComparator {
 public:
  struct Counts {
    std::atomic<int64_t> tournaments{0};
    std::atomic<int64_t> votes{0};
    std::atomic<int64_t> compares{0};
  };

  CountingBatchComparator(std::unique_ptr<Comparator> inner, Counts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  std::unique_ptr<Comparator> Fork(uint64_t seed) const override {
    return std::make_unique<CountingBatchComparator>(inner_->Fork(seed),
                                                     counts_);
  }
  VoteBatchComparator* AsVoteBatch() override { return this; }
  int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                        std::span<ElementId> out) override {
    ++counts_->votes;
    const int64_t answered = inner_->AsVoteBatch()->GenerateVotes(pairs, out);
    AddComparisons(answered);
    return answered;
  }
  int64_t GenerateTournament(std::span<const ElementId> players,
                             std::span<const uint64_t> skip,
                             LossMatrix* losses) override {
    ++counts_->tournaments;
    const int64_t answered =
        inner_->AsVoteBatch()->GenerateTournament(players, skip, losses);
    AddComparisons(answered);
    return answered;
  }

 private:
  ElementId DoCompare(ElementId a, ElementId b) override {
    ++counts_->compares;
    return inner_->Compare(a, b);
  }

  std::unique_ptr<Comparator> inner_;
  Counts* counts_;
};

TEST(PlayerUnitTest, ComparatorBackendsAnswerEachUnitWithOneTournamentCall) {
  // A silent fallback to written-out pairs (GenerateVotes) or to per-pair
  // Compare calls fails the counts; the answers and counters must match
  // the bare model's on the same backend.
  struct Case {
    const char* name;
    int64_t n;
    std::vector<Groups> rounds;
  };
  const Case cases[] = {{"small", 24, SmallSchedule()},
                        {"large", 200, LargeSchedule()}};
  const BackendCase backends[] = {{"serial", Backend::kSerial, 0},
                                  {"parallel1", Backend::kParallel, 1},
                                  {"parallel4", Backend::kParallel, 4}};
  for (const Case& schedule : cases) {
    const Instance instance = MakeInstance(schedule.n, 8);
    const ThresholdModel model{instance.DeltaForU(instance.size() / 2), 0.0};
    int64_t units = 0;
    for (const Groups& groups : schedule.rounds) {
      units += static_cast<int64_t>(groups.size());
    }
    for (const bool promise : {false, true}) {
      for (const BackendCase& backend : backends) {
        const std::string context = std::string(schedule.name) + " " +
                                    backend.name +
                                    " promise=" + std::to_string(promise);
        std::vector<ScheduleRun> runs;
        CountingBatchComparator::Counts counts;
        for (const bool counting : {false, true}) {
          std::unique_ptr<Comparator> naive =
              std::make_unique<ThresholdComparator>(&instance, model,
                                                    /*seed=*/77);
          if (counting) {
            naive = std::make_unique<CountingBatchComparator>(
                std::move(naive), &counts);
          }
          std::unique_ptr<RoundEngine> engine;
          if (backend.backend == Backend::kSerial) {
            engine = RoundEngine::CreateSerial(naive.get(), /*memoize=*/true);
          } else {
            Result<std::unique_ptr<RoundEngine>> created =
                RoundEngine::CreateParallel(naive.get(), backend.width,
                                            /*seed=*/99, /*memoize=*/true);
            ASSERT_TRUE(created.ok()) << context;
            engine = std::move(created).value();
          }
          GroupSource source(schedule.rounds, /*players=*/true,
                             /*granular=*/false, promise);
          ASSERT_TRUE(engine->Drive(&source).ok()) << context;
          runs.push_back(ScheduleRun{source.answers(), engine->paid(),
                                     engine->issued(), engine->cache_hits(),
                                     source.unresolved()});
        }
        EXPECT_EQ(counts.tournaments.load(), units) << context;
        EXPECT_EQ(counts.votes.load(), 0) << context;
        EXPECT_EQ(counts.compares.load(), 0) << context;
        EXPECT_EQ(runs[1].answers, runs[0].answers) << context;
        EXPECT_EQ(runs[1].paid, runs[0].paid) << context;
        EXPECT_EQ(runs[1].cache_hits, runs[0].cache_hits) << context;
        EXPECT_GT(runs[1].cache_hits, 0) << context;
      }
    }
  }
}

// One player unit per round, with the players it names after the round.
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
                        const RoundOutcome& /*outcome*/) override {
    return Status::OK();
  }
  bool NamesRecurringElements() const override { return true; }
  std::span<const ElementId> RecurringElements() const override {
    return named_[next_ - 1];
  }

 private:
  Groups rounds_;
  Groups named_;
  size_t next_ = 0;
};

TEST(PlayerUnitTest, SecondDriveFindsTheMemoHitsItsFirstDriveLeft) {
  // The first drive keeps {0,1}, {0,2} and {1,2}. The second starts on a
  // memo it did not write, so it must probe every pair: its three
  // regrouped pairs are hits, the three pairs with 4 are bought.
  const Instance instance = MakeInstance(8, 3);
  OracleComparator oracle(&instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&oracle, /*memoize=*/true);
  ScriptedPlayers first({{0, 1, 2, 3}}, {{0, 1, 2}});
  ASSERT_TRUE(engine->Drive(&first).ok());
  EXPECT_EQ(engine->paid(), 6);
  ScriptedPlayers second({{4, 2, 1, 0}}, {{}});
  ASSERT_TRUE(engine->Drive(&second).ok());
  EXPECT_EQ(engine->cache_hits(), 3);
  EXPECT_EQ(engine->paid(), 9);
}

TEST(PlayerUnitTest, ResumedPruningDriveFindsTheUninterruptedMemoHits) {
  // The filter on the serial engine, crashed at each of its first round
  // boundaries and resumed on a fresh stack: the restored memo was not
  // written by the resumed drive, so its pairs must still be probed.
  const Instance instance = MakeInstance(400, 17);
  const double delta = instance.DeltaForU(5);
  FilterOptions options;
  options.u_n = instance.CountWithin(delta);
  options.memoize = true;
  for (const bool groups : {false, true}) {
    options.pipeline_groups = groups;
    const ThresholdModel model{delta, 0.1};
    ThresholdComparator baseline_naive(&instance, model, /*seed=*/2024);
    std::unique_ptr<RoundEngine> baseline =
        RoundEngine::CreateSerial(&baseline_naive, /*memoize=*/true);
    Result<FilterResult> whole =
        RunFilterOnEngine(instance.AllElements(), options, baseline.get());
    ASSERT_TRUE(whole.ok());
    ASSERT_GT(baseline->cache_hits(), 0);
    for (const int64_t boundary : {1, 2}) {
      const std::string context = "groups=" + std::to_string(groups) +
                                  " boundary=" + std::to_string(boundary);
      CheckpointController crash;
      crash.ArmCrashAtBoundary(boundary);
      ThresholdComparator crashed_naive(&instance, model, /*seed=*/2024);
      std::unique_ptr<RoundEngine> crashed =
          RoundEngine::CreateSerial(&crashed_naive, /*memoize=*/true);
      crashed->set_checkpoint(&crash);
      Result<FilterResult> aborted =
          RunFilterOnEngine(instance.AllElements(), options, crashed.get());
      ASSERT_EQ(aborted.status().code(), StatusCode::kAborted) << context;
      ASSERT_TRUE(crash.has_checkpoint()) << context;

      CheckpointController resume;
      resume.ResumeFrom(crash.checkpoint());
      ThresholdComparator resumed_naive(&instance, model, /*seed=*/2024);
      std::unique_ptr<RoundEngine> resumed =
          RoundEngine::CreateSerial(&resumed_naive, /*memoize=*/true);
      resumed->set_checkpoint(&resume);
      Result<FilterResult> rest =
          RunFilterOnEngine(instance.AllElements(), options, resumed.get());
      ASSERT_TRUE(rest.ok()) << context;
      EXPECT_EQ(resume.restores(), 1) << context;
      EXPECT_EQ(rest->candidates, whole->candidates) << context;
      EXPECT_EQ(resumed->paid(), baseline->paid()) << context;
      EXPECT_EQ(resumed->cache_hits(), baseline->cache_hits()) << context;
    }
  }
}

#ifndef NDEBUG
// A source that emits one round of the given units, then stops.
class OneRound : public RoundSource {
 public:
  explicit OneRound(std::vector<RoundUnit> units) : units_(std::move(units)) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (units_.empty()) return false;
    round->units = std::move(units_);
    units_.clear();
    return true;
  }
  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& /*outcome*/) override {
    return Status::OK();
  }

 private:
  std::vector<RoundUnit> units_;
};

void DriveOneRound(const Instance& instance, std::vector<RoundUnit> units) {
  OneRound source(std::move(units));
  OracleComparator oracle(&instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&oracle, /*memoize=*/true);
  (void)engine->Drive(&source);
}

TEST(PlayerUnitDeathTest, PlayerUnitsSharingAnElementAreRefused) {
  const Instance instance = MakeInstance(8, 3);
  std::vector<RoundUnit> units(2);
  units[0].players = {0, 1, 2};
  units[1].players = {2, 3};
  EXPECT_DEATH(DriveOneRound(instance, units), "share an element");
}

TEST(PlayerUnitDeathTest, UnitWithPairsAndPlayersIsRefused) {
  const Instance instance = MakeInstance(8, 3);
  std::vector<RoundUnit> units(1);
  units[0].players = {0, 1, 2};
  units[0].pairs = {{3, 4}};
  EXPECT_DEATH(DriveOneRound(instance, units), "pairs or players");
}
#endif

}  // namespace
}  // namespace crowdmax
