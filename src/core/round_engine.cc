#include "core/round_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <limits>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/metrics.h"
#include "core/async_executor.h"
#include "core/batched.h"
#include "core/checkpoint.h"
#include "core/pair_key.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

constexpr uint32_t kDriveTag = CheckpointTag("DRV ");
constexpr uint32_t kEngineTag = CheckpointTag("ENG ");
constexpr uint32_t kCacheTag = CheckpointTag("CACH");
constexpr uint32_t kSourceTag = CheckpointTag("SRC ");

// Non-pipelined executor rounds still pay the crowd round-trip: the engine
// sleeps out whatever simulated latency the executor stack accumulated for
// this round. A no-op with the latency model off (the default).
void SleepOutLatency(BatchExecutor* executor) {
  const int64_t micros = executor->TakeSimulatedLatencyMicros();
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

void ObservePipelineDepth(int64_t in_flight) {
  if (!MetricsEnabled()) return;
  static Counter* overlapped = MetricsRegistry::Default()->GetCounter(
      "crowdmax.pipeline.overlapped_rounds");
  static Gauge* depth =
      MetricsRegistry::Default()->GetGauge("crowdmax.pipeline.max_in_flight");
  if (in_flight > 1) overlapped->Increment();
  if (in_flight > depth->value()) depth->Set(in_flight);
}

void ObserveSpeculation(int64_t hits, int64_t mispredicts, int64_t wasted) {
  if (!MetricsEnabled()) return;
  static Counter* hit_counter = MetricsRegistry::Default()->GetCounter(
      "crowdmax.speculation.hits");
  static Counter* miss_counter = MetricsRegistry::Default()->GetCounter(
      "crowdmax.speculation.mispredicts");
  static Counter* wasted_counter = MetricsRegistry::Default()->GetCounter(
      "crowdmax.speculation.wasted_comparisons");
  if (hits > 0) hit_counter->Add(hits);
  if (mispredicts > 0) miss_counter->Add(mispredicts);
  if (wasted > 0) wasted_counter->Add(wasted);
}

bool HasPlayerUnits(const EngineRound& round) {
  return std::any_of(round.units.begin(), round.units.end(),
                     [](const RoundUnit& unit) { return !unit.players.empty(); });
}

// A unit's pairs in order: a pair unit's own list, or a player unit's
// (players[i], players[j]) for i < j, row by row, written out into
// `scratch`. Every write-out of a unit's pairs goes through here.
std::span<const ComparisonPair> PairsOf(const RoundUnit& unit,
                                        std::vector<ComparisonPair>* scratch) {
  if (unit.players.empty()) return unit.pairs;
  const std::vector<ElementId>& players = unit.players;
  scratch->resize(static_cast<size_t>(unit.NumPairs()));
  ComparisonPair* pair = scratch->data();
  for (size_t i = 0; i < players.size(); ++i) {
    for (size_t j = i + 1; j < players.size(); ++j) {
      *pair++ = {players[i], players[j]};
    }
  }
  return *scratch;
}

// A winners placeholder of the executor resolve: a later occurrence of a
// pair the round bought at an earlier one (which holds -1), read back from
// the cache once the answers are stored.
constexpr ElementId kRepeatedPair = -3;

// Miss m's answer in an executor batch's `answers`: its winner, or
// kUnresolvedWinner when the task came back unanswered or the whole batch
// failed (`answers` null).
ElementId AnswerOf(const std::vector<BatchTaskResult>* answers, size_t m) {
  if (answers == nullptr || !(*answers)[m].answered) return kUnresolvedWinner;
  return (*answers)[m].winner;
}

// Calls fn(x, y, x_lost) for every pair x < y of the `count` players whose
// rows in `losses` are row(0), ..., row(count - 1) that has evidence;
// x_lost tells which of the two lost. A pair without evidence (a faulted
// one) sets neither bit and is skipped.
template <typename Row, typename Fn>
void ForEachAnsweredPair(const LossMatrix& losses, size_t count, Row&& row,
                         Fn&& fn) {
  for (size_t x = 0; x < count; ++x) {
    const size_t rx = row(x);
    for (size_t y = x + 1; y < count; ++y) {
      const size_t ry = row(y);
      if (losses.Lost(rx, ry)) {
        fn(x, y, true);
      } else if (losses.Lost(ry, rx)) {
        fn(x, y, false);
      }
    }
  }
}

// A batch that failed as a whole: a transient fault (kUnavailable) reaches
// the source as the outcome's `fault`; any other aborts the drive.
Status TakeFault(const Result<std::vector<BatchTaskResult>>& results,
                 RoundOutcome* out) {
  if (results.ok()) return Status::OK();
  if (results.status().code() != StatusCode::kUnavailable) {
    return results.status();
  }
  out->fault = results.status();
  return Status::OK();
}

int64_t CountBits(std::span<const uint64_t> words) {
  int64_t bits = 0;
  for (const uint64_t word : words) bits += std::popcount(word);
  return bits;
}

// Answers `misses` into `answers` on `comparator`: one GenerateVotes call,
// or one Compare per pair, in order, without a batch interface. Returns how
// many it answered: a prefix, when a pair has an id outside the
// comparator's instance. The per-call loop refuses the pair the batch
// interface refuses, before Compare reads it.
int64_t Vote(Comparator* comparator, std::span<const ComparisonPair> misses,
             std::span<ElementId> answers) {
  if (VoteBatchComparator* batch = comparator->AsVoteBatch()) {
    return batch->GenerateVotes(misses, answers);
  }
  const int64_t limit = comparator->IdLimit();
  size_t m = 0;
  for (; m < misses.size() && PairBelow(misses[m], limit); ++m) {
    answers[m] = comparator->Compare(misses[m].first, misses[m].second);
  }
  return static_cast<int64_t>(m);
}

// A Vote that answered only `produced` of `pairs` refused the next one: by
// the VoteBatchComparator contract, an id outside the comparator's
// instance.
Status ShortAnswer(int64_t produced, std::span<const ComparisonPair> pairs) {
  if (produced == static_cast<int64_t>(pairs.size())) return Status::OK();
  return RefusedPairError(pairs[static_cast<size_t>(produced)]);
}

// A GenerateTournament call that answered only `answered` of a group's
// unskipped pairs refused the next one in row-major order: the pair
// ShortAnswer names when the same pairs are written out.
Status ShortTournament(int64_t answered, std::span<const ElementId> players,
                       size_t stride, std::span<const uint64_t> skip) {
  int64_t seen = 0;
  Status refused = Status::OK();
  ForEachUnskippedPair(players.size(), stride, skip, [&](size_t i, size_t j) {
    if (seen++ == answered) {
      refused = RefusedPairError({players[i], players[j]});
    }
  });
  return refused;
}

}  // namespace

int64_t RoundUnit::NumPairs() const {
  const int64_t k = static_cast<int64_t>(players.size());
  return players.empty() ? static_cast<int64_t>(pairs.size()) : k * (k - 1) / 2;
}

int64_t SharedPairCache::ResolvedPairs(int64_t class_id) const {
  auto it = maps_.find(class_id);
  if (it == maps_.end()) return 0;
  int64_t resolved = 0;
  it->second.ForEach([&resolved](uint64_t /*key*/, ElementId winner) {
    if (winner != kUnresolvedWinner) ++resolved;
  });
  return resolved;
}

int64_t EngineRound::TotalPairs() const {
  int64_t total = 0;
  for (const RoundUnit& unit : units) total += unit.NumPairs();
  return total;
}

void RoundEngine::Ledger::Clear() {
  units_.clear();
  seats_.clear();
  elements_.clear();
  slots_.clear();
  shift_ = 64;
}

int64_t RoundEngine::Ledger::Find(ElementId id) const {
  if (slots_.empty()) return -1;
  const uint64_t key = static_cast<uint64_t>(id) + 1;
  const size_t mask = slots_.size() - 1;
  for (size_t at = (key * 0x9e3779b97f4a7c15ULL) >> shift_;;
       at = (at + 1) & mask) {
    const uint64_t slot = slots_[at];
    if (slot == 0) return -1;
    if ((slot >> 32) == key) return static_cast<int64_t>(slot & 0xffffffff);
  }
}

void RoundEngine::Ledger::Reserve(size_t additional) {
  // At most half full, so a miss ends within a few slots.
  const size_t needed = 2 * (elements_.size() + additional);
  if (needed <= slots_.size()) return;
  slots_.assign(std::bit_ceil(std::max<size_t>(needed, 64)), 0);
  shift_ = 64 - std::countr_zero(slots_.size());
  for (size_t index = 0; index < elements_.size(); ++index) {
    Place(elements_[index].id, index);
  }
}

void RoundEngine::Ledger::Place(ElementId id, size_t index) {
  const uint64_t key = static_cast<uint64_t>(id) + 1;
  const size_t mask = slots_.size() - 1;
  size_t at = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
  while (slots_[at] != 0) at = (at + 1) & mask;
  slots_[at] = key << 32 | index;
}

void RoundEngine::Ledger::Name(std::span<const ElementId> named) {
  ++commit_;
  Reserve(named.size());
  for (const ElementId id : named) {
    CROWDMAX_DCHECK(id >= 0);
    int64_t index = Find(id);
    if (index < 0) {
      index = static_cast<int64_t>(elements_.size());
      elements_.push_back({.id = id});
      Place(id, elements_.size() - 1);
    }
    elements_[static_cast<size_t>(index)].named_at = commit_;
  }
}

int64_t RoundEngine::Ledger::NamedIndex(ElementId id) const {
  const int64_t index = Find(id);
  return index >= 0 && elements_[static_cast<size_t>(index)].named_at == commit_
             ? index
             : -1;
}

void RoundEngine::Ledger::AddUnit(LossMatrix losses,
                                  std::span<const size_t> rows,
                                  std::span<const int64_t> elements) {
  CROWDMAX_CHECK(seats_.size() + rows.size() <
                 static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  const uint32_t unit = static_cast<uint32_t>(units_.size());
  units_.push_back({std::move(losses), seats_.size(), rows.size()});
  for (size_t x = 0; x < rows.size(); ++x) {
    Element& element = elements_[static_cast<size_t>(elements[x])];
    seats_.push_back({unit, static_cast<uint32_t>(rows[x]),
                      static_cast<uint32_t>(elements[x]), element.last_seat});
    element.last_seat = static_cast<int32_t>(seats_.size() - 1);
  }
}

void RoundEngine::Ledger::Probe(std::span<const ElementId> players,
                                LossMatrix* losses, std::span<uint64_t> hits,
                                std::vector<uint64_t>* seats) const {
  // Every seat the players hold, as (seat << 32 | player). A unit's seats
  // are consecutive, so ordering by seat groups the players by the unit
  // they met in, in commit order.
  seats->clear();
  for (size_t i = 0; i < players.size(); ++i) {
    const int64_t element = Find(players[i]);
    if (element < 0) continue;
    for (int32_t seat = elements_[static_cast<size_t>(element)].last_seat;
         seat >= 0; seat = seats_[static_cast<size_t>(seat)].previous) {
      seats->push_back(static_cast<uint64_t>(seat) << 32 | i);
    }
  }
  if (!std::is_sorted(seats->begin(), seats->end())) {
    std::sort(seats->begin(), seats->end());
  }
  const size_t stride = losses->stride();
  uint64_t* const words = losses->words().data();
  for (size_t begin = 0; begin < seats->size();) {
    // The players that met in one unit, rewritten in place as
    // (row << 32 | player).
    const uint32_t unit =
        seats_[static_cast<size_t>((*seats)[begin] >> 32)].unit;
    size_t end = begin;
    for (; end < seats->size(); ++end) {
      const uint64_t held = (*seats)[end];
      const Seat& seat = seats_[static_cast<size_t>(held >> 32)];
      if (seat.unit != unit) break;
      (*seats)[end] = uint64_t{seat.row} << 32 | (held & 0xffffffff);
    }
    // Copies each pair's two loss bits and its evidence without a branch
    // on who won: that is a coin flip to the branch predictor.
    const LossMatrix& met_losses = units_[unit].losses;
    const uint64_t* const met = met_losses.Row(0).data();
    const size_t met_stride = met_losses.stride();
    const uint64_t* const run = seats->data() + begin;
    const size_t count = end - begin;
    for (size_t x = 0; x < count; ++x) {
      const size_t rx = static_cast<size_t>(run[x] >> 32);
      const size_t ix = static_cast<size_t>(run[x] & 0xffffffff);
      const uint64_t* const met_row = met + rx * met_stride;
      uint64_t* const row = words + ix * stride;
      for (size_t y = x + 1; y < count; ++y) {
        const size_t ry = static_cast<size_t>(run[y] >> 32);
        const size_t iy = static_cast<size_t>(run[y] & 0xffffffff);
        const uint64_t x_lost = (met_row[ry >> 6] >> (ry & 63)) & 1;
        const uint64_t y_lost =
            (met[ry * met_stride + (rx >> 6)] >> (rx & 63)) & 1;
        row[iy >> 6] |= x_lost << (iy & 63);
        words[iy * stride + (ix >> 6)] |= y_lost << (ix & 63);
        const size_t lo = std::min(ix, iy);
        const size_t hi = std::max(ix, iy);
        hits[lo * stride + (hi >> 6)] |= (x_lost | y_lost) << (hi & 63);
      }
    }
    begin = end;
  }
}

template <typename Fn>
void RoundEngine::Ledger::ForEachAnswered(Fn&& fn) const {
  for (const Unit& unit : units_) {
    const std::span<const Seat> seats(seats_.data() + unit.first_seat,
                                      unit.num_seats);
    const auto id = [&](size_t x) { return elements_[seats[x].element].id; };
    ForEachAnsweredPair(
        unit.losses, seats.size(), [&](size_t x) { return seats[x].row; },
        [&](size_t x, size_t y, bool x_lost) {
          fn(id(x), id(y), x_lost ? id(y) : id(x));
        });
  }
}

RoundEngine::RoundEngine(Backend backend, Comparator* comparator,
                         BatchExecutor* executor, bool memoize,
                         int64_t threads, uint64_t seed,
                         SharedPairCache* shared_cache, int64_t cache_class)
    : backend_(backend),
      comparator_(comparator),
      executor_(executor),
      // A shared cache only works through memoization: opting into sharing
      // implies it, on every backend.
      memoize_(memoize || shared_cache != nullptr),
      cache_(shared_cache != nullptr ? shared_cache->ForClass(cache_class)
                                     : &owned_cache_),
      seeder_(seed),
      threads_(threads) {
  if (backend_ == Backend::kParallel) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }
  if (comparator_ != nullptr) paid_base_ = comparator_->num_comparisons();
  if (executor_ != nullptr) {
    paid_base_ = executor_->comparisons();
    steps_base_ = executor_->logical_steps();
  }
}

std::unique_ptr<RoundEngine> RoundEngine::CreateSerial(
    Comparator* comparator, bool memoize, SharedPairCache* shared_cache,
    int64_t cache_class) {
  CROWDMAX_CHECK(comparator != nullptr);
  return std::unique_ptr<RoundEngine>(new RoundEngine(
      Backend::kSerial, comparator, nullptr, memoize, 0, 0, shared_cache,
      cache_class));
}

Result<std::unique_ptr<RoundEngine>> RoundEngine::CreateParallel(
    Comparator* comparator, int64_t threads, uint64_t seed, bool memoize,
    SharedPairCache* shared_cache, int64_t cache_class) {
  CROWDMAX_CHECK(comparator != nullptr);
  if (threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  // Probe forkability once, up front, so every later failure mode is a
  // clean Status instead of a surprise deep inside a round.
  if (comparator->Fork(0) == nullptr) {
    return Status::InvalidArgument(
        "comparator does not support Fork(); the parallel engine requires "
        "a forkable comparator (see comparator.h thread-safety contract)");
  }
  return std::unique_ptr<RoundEngine>(
      new RoundEngine(Backend::kParallel, comparator, nullptr, memoize,
                      threads, seed, shared_cache, cache_class));
}

Result<std::unique_ptr<RoundEngine>> RoundEngine::CreateBatched(
    BatchExecutor* executor, bool memoize, SharedPairCache* shared_cache,
    int64_t cache_class) {
  CROWDMAX_CHECK(executor != nullptr);
  return std::unique_ptr<RoundEngine>(
      new RoundEngine(Backend::kExecutor, nullptr, executor, memoize, 0, 0,
                      shared_cache, cache_class));
}

Result<std::unique_ptr<RoundEngine>> RoundEngine::CreatePipelined(
    AsyncBatchExecutor* async, int64_t max_in_flight, bool memoize,
    SharedPairCache* shared_cache, int64_t cache_class) {
  CROWDMAX_CHECK(async != nullptr);
  if (max_in_flight < 1) {
    return Status::InvalidArgument("max_in_flight must be >= 1");
  }
  std::unique_ptr<RoundEngine> engine(
      new RoundEngine(Backend::kExecutor, nullptr, async->inner(), memoize, 0,
                      0, shared_cache, cache_class));
  engine->async_ = async;
  engine->max_in_flight_ = max_in_flight;
  return engine;
}

Status RoundSource::SaveState(CheckpointWriter* /*writer*/) const {
  return Status::FailedPrecondition(
      "this RoundSource does not support checkpointing");
}

Status RoundSource::LoadState(CheckpointReader* /*reader*/) {
  return Status::FailedPrecondition(
      "this RoundSource does not support checkpointing");
}

Result<bool> RoundSource::SpeculateNextRound(EngineRound* /*round*/) {
  return Status::FailedPrecondition(
      "this RoundSource advertised CanSpeculateNextRound but does not "
      "implement SpeculateNextRound");
}

Result<std::string> RoundEngine::SerializeCheckpoint(
    const RoundSource* source, int64_t paid_start, const DriveResult& drive) {
  CheckpointWriter writer;
  writer.WriteTag(kDriveTag);
  writer.WriteI64(paid_start);
  writer.WriteI64(drive.rounds_executed);
  writer.WriteTag(kEngineTag);
  writer.WriteI64(paid_base_);
  writer.WriteI64(steps_base_);
  writer.WriteI64(issued_);
  writer.WriteI64(cache_hits_);
  writer.WriteI64(overlapped_rounds_);
  writer.WriteI64(max_in_flight_observed_);
  // Speculation counters (DESIGN.md §15). Checkpoints happen only at
  // fully-drained boundaries, where no speculative round can be in flight
  // (confirmation turns them firm, cancellation empties the window), so
  // the counters are the only speculation state the engine owns here.
  writer.WriteI64(speculative_rounds_);
  writer.WriteI64(speculation_hits_);
  writer.WriteI64(speculation_mispredicts_);
  writer.WriteI64(speculation_wasted_);
  writer.WriteRngState(seeder_.state());
  // At a clean boundary the cache holds winners and kUnresolvedWinner
  // parkings only — never a -1 in-flight reservation.
  writer.WriteTag(kCacheTag);
  if (ledger_.empty()) {
    SavePairTable(&writer, *cache_);
  } else {
    PairTable memo = *cache_;
    WriteLedger(&memo);
    SavePairTable(&writer, memo);
  }
  Status stack = comparator_ != nullptr ? comparator_->SaveState(&writer)
                                        : executor_->SaveState(&writer);
  if (!stack.ok()) return stack;
  writer.WriteTag(kSourceTag);
  Status src = source->SaveState(&writer);
  if (!src.ok()) return src;
  return writer.Take();
}

Status RoundEngine::RestoreCheckpoint(RoundSource* source,
                                      const std::string& bytes,
                                      int64_t* paid_start,
                                      DriveResult* drive) {
  Result<CheckpointReader> opened = CheckpointReader::Open(bytes);
  if (!opened.ok()) return opened.status();
  CheckpointReader reader = std::move(opened).value();
  reader.ExpectTag(kDriveTag);
  *paid_start = reader.ReadI64();
  drive->rounds_executed = reader.ReadI64();
  reader.ExpectTag(kEngineTag);
  paid_base_ = reader.ReadI64();
  steps_base_ = reader.ReadI64();
  issued_ = reader.ReadI64();
  cache_hits_ = reader.ReadI64();
  overlapped_rounds_ = reader.ReadI64();
  max_in_flight_observed_ = reader.ReadI64();
  speculative_rounds_ = reader.ReadI64();
  speculation_hits_ = reader.ReadI64();
  speculation_mispredicts_ = reader.ReadI64();
  speculation_wasted_ = reader.ReadI64();
  seeder_.set_state(reader.ReadRngState());
  reader.ExpectTag(kCacheTag);
  LoadPairTable(&reader, cache_);
  ledger_.Clear();
  if (!reader.status().ok()) return reader.status();
  Status stack = comparator_ != nullptr ? comparator_->LoadState(&reader)
                                        : executor_->LoadState(&reader);
  if (!stack.ok()) return stack;
  reader.ExpectTag(kSourceTag);
  if (!reader.status().ok()) return reader.status();
  Status src = source->LoadState(&reader);
  if (!src.ok()) return src;
  return reader.Finish();
}

int64_t RoundEngine::paid() const {
  if (executor_ != nullptr) return executor_->comparisons() - paid_base_;
  return comparator_->num_comparisons() - paid_base_;
}

int64_t RoundEngine::logical_steps() const {
  if (executor_ == nullptr) return 0;
  return executor_->logical_steps() - steps_base_;
}

Result<RoundOutcome> RoundEngine::ExecuteSerial(const EngineRound& round) {
  RoundOutcome out;
  out.winners.resize(round.units.size());
  out.losses.resize(round.units.size());
  const int64_t paid_before = comparator_->num_comparisons();
  // The memo is written during the round only for a drive that keeps every
  // pair, and only by pair units; a pruning drive, and every player unit,
  // resolves read-only and commits after the consume.
  const bool write_memo = memoize_ && !prune_;

  // Scratch, engine-owned and reused across units *and* rounds:
  // steady-state rounds allocate nothing.
  if (unit_scratch_.empty()) unit_scratch_.resize(1);
  UnitScratch& scratch = unit_scratch_[0];
  std::vector<ComparisonPair>& misses = scratch.misses;
  std::vector<size_t>& miss_at = serial_miss_at_;  // pair index per miss
  std::vector<ElementId>& answers = scratch.answers;  // Vote output
  std::vector<size_t>& deferred = serial_deferred_;  // in-unit duplicates
  // One grow per round: every unit's batch insert below then finds room.
  if (write_memo) cache_->Reserve(round.TotalPairs());

  for (size_t u = 0; u < round.units.size(); ++u) {
    const RoundUnit& unit = round.units[u];
    std::vector<ElementId>& winners = out.winners[u];
    Status answered = Status::OK();
    if (!unit.players.empty() || !write_memo) {
      // Memo off or read-only: the resolve every comparator backend
      // shares. A pruning source repeats no pair within a round, and a
      // player unit none at all, so there are no in-unit duplicates to
      // dedupe.
      Result<int64_t> bought =
          unit.players.empty()
              ? AnswerUnit(unit, comparator_, &scratch, &winners)
              : AnswerPlayers(unit, comparator_, &scratch, &out.losses[u]);
      if (bought.ok()) {
        cache_hits_ += unit.NumPairs() - *bought;
      } else {
        answered = bought.status();
      }
    } else {
      // A memoized pair unit, bit-identical to asking the memo, then the
      // comparator, one pair at a time: misses are collected in
      // first-occurrence order (the order that loop would draw them),
      // answered with one Vote call, then written back. A duplicate of a
      // pair whose first occurrence is still unanswered counts as a cache
      // hit — the loop would find the first occurrence's fresh entry — and
      // is filled from the cache afterwards. One batch insert probes each
      // pair once and pins its slot (new keys reserved with -1); answers
      // and duplicates go through the pins, so a bought pair's slot is
      // written once more, with its answer.
      winners.resize(unit.pairs.size());
      const std::span<const PairSlotRef> slots =
          PinSlots(unit.pairs, /*absent_value=*/-1);
      misses.clear();
      miss_at.clear();
      deferred.clear();
      for (size_t p = 0; p < unit.pairs.size(); ++p) {
        const PairSlotRef& slot = slots[p];
        if (!slot.inserted) {
          const ElementId cached = *slot.value;
          if (cached == -1) {
            // Same pair again within this unit, first occurrence still
            // in the miss list.
            ++cache_hits_;
            deferred.push_back(p);
            continue;
          }
          if (cached != kUnresolvedWinner) {
            winners[p] = cached;
            ++cache_hits_;
            continue;
          }
          // An unresolved parking from an earlier executor-backed
          // phase: reserve it like a fresh key.
          *slot.value = -1;
        }
        // Buy the pair this round.
        misses.push_back(unit.pairs[p]);
        miss_at.push_back(p);
      }
      answers.resize(misses.size());
      const int64_t produced = Vote(comparator_, misses, answers);
      // A refused pair ends the drive. Its answered prefix stays bought;
      // every reservation from the refused pair on is parked, so the memo
      // holds no -1 after the round.
      answered = ShortAnswer(produced, misses);
      const size_t num_misses = misses.size();
      for (size_t m = 0; m < num_misses; ++m) {
        if (m + PairTable::kPrefetchDistance < num_misses) {
          slots[miss_at[m + PairTable::kPrefetchDistance]].value.Prefetch();
        }
        const ElementId winner = static_cast<int64_t>(m) < produced
                                     ? answers[m]
                                     : kUnresolvedWinner;
        CROWDMAX_DCHECK(winner == misses[m].first ||
                        winner == misses[m].second ||
                        winner == kUnresolvedWinner);
        *slots[miss_at[m]].value = winner;
        winners[miss_at[m]] = winner;
      }
      for (size_t p : deferred) winners[p] = *slots[p].value;
    }
    out.issued += unit.NumPairs();
    if (!answered.ok()) return answered;
  }

  out.paid_delta = comparator_->num_comparisons() - paid_before;
  issued_ += out.issued;
  return out;
}

Result<RoundOutcome> RoundEngine::ExecuteParallel(const EngineRound& round) {
  const int64_t num_units = static_cast<int64_t>(round.units.size());
  RoundOutcome out;
  out.winners.resize(round.units.size());
  out.losses.resize(round.units.size());
  if (num_units == 0) return out;

  // Seeds are drawn before dispatch, in unit order — the whole point: the
  // answers depend only on (unit contents, seed), never on the schedule.
  std::vector<uint64_t> seeds(round.units.size());
  for (int64_t u = 0; u < num_units; ++u) {
    seeds[static_cast<size_t>(u)] = seeder_.Fork();
  }

  // Engine-owned per-unit scratch, reused across rounds: each pool task
  // touches only its own slot (indexed by unit), so the buffers stay
  // fork-local and race-free. Grown, never shrunk, so steady-state rounds
  // allocate nothing.
  if (unit_scratch_.size() < round.units.size()) {
    unit_scratch_.resize(round.units.size());
  }

  // During the round the cache is read-only shared state; each task
  // writes only to its own pre-sized outcome and status slots. The
  // per-call path never deduped within a unit either (each repeat is a
  // fresh paid draw — Venetis votes), so a unit's misses are every pair
  // absent from the snapshot, duplicates included, in pair order.
  std::vector<int64_t> unit_paid(round.units.size(), 0);
  std::vector<Status> unit_status(round.units.size());
  pool_->ParallelFor(num_units, [&](int64_t u) {
    const size_t unit_index = static_cast<size_t>(u);
    const std::unique_ptr<Comparator> fork =
        comparator_->Fork(seeds[unit_index]);
    CROWDMAX_CHECK(fork != nullptr);
    const RoundUnit& unit = round.units[unit_index];
    UnitScratch* scratch = &unit_scratch_[unit_index];
    const Result<int64_t> bought =
        unit.players.empty()
            ? AnswerUnit(unit, fork.get(), scratch, &out.winners[unit_index])
            : AnswerPlayers(unit, fork.get(), scratch,
                            &out.losses[unit_index]);
    unit_status[unit_index] = bought.status();
    unit_paid[unit_index] = fork->num_comparisons();
  });

  // Round barrier: merge the counter shards into the parent, then report
  // the first refused pair in unit order. The fresh pair outcomes reach
  // the cache through CommitRound, after the consume.
  int64_t total_paid = 0;
  for (int64_t paid : unit_paid) total_paid += paid;
  comparator_->AddComparisons(total_paid);
  for (const Status& status : unit_status) {
    if (!status.ok()) return status;
  }

  out.issued = round.TotalPairs();
  out.paid_delta = total_paid;
  issued_ += out.issued;
  cache_hits_ += out.issued - out.paid_delta;
  return out;
}

// One round between its submission and its consume: the unit of the
// drive's in-flight window. A comparator backend answers the whole round
// at submission; an executor round carries its misses from the resolve to
// the read-back. A speculative round sits in the window with only `round`,
// `handle` (an unconfirmed speculative handle) and `source_round_index`
// filled in: its deterministic half runs at confirmation, when Submit is
// invoked on it.
struct RoundEngine::PendingRound {
  EngineRound round;
  RoundOutcome out;
  /// Executor rounds: the pairs bought, in first-occurrence order, and each
  /// later occurrence of one of them within the round, in round order.
  std::vector<ComparisonPair> misses;
  std::vector<ComparisonPair> repeats;
  /// A round resolved read-only: each player unit's memo hits (a pair mask
  /// of its matrix's layout, empty when nothing was probed). Its other
  /// pairs are among the misses, in row-major order.
  std::vector<std::vector<uint64_t>> player_hits;
  /// The round's lone pair unit went to the executor as it is, because the
  /// memo had nothing to read: its winners are the answers, in order.
  bool direct = false;
  /// The synchronous executor's answers, taken at submission.
  Result<std::vector<BatchTaskResult>> results{std::vector<BatchTaskResult>()};
  /// Pipelined engines: the round's async batch.
  int64_t handle = -1;
  bool speculative = false;
  /// Emission ordinal of this round within the drive (rounds consumed +
  /// position in the in-flight window at emission), for diagnostics.
  int64_t source_round_index = 0;
};

Status RoundEngine::Submit(PendingRound* pending, bool overlapped) {
  const EngineRound& round = pending->round;
  AlgoTrace* trace = CurrentTrace();
  const int64_t span_id = round.span != nullptr && trace != nullptr
                              ? trace->BeginSpan(TraceSpanKind::kBatch,
                                                 round.span)
                              : -1;
  Status submitted = Status::OK();
  if (backend_ == Backend::kExecutor) {
    submitted = SubmitExecutor(pending, overlapped);
  } else {
    Result<RoundOutcome> outcome = backend_ == Backend::kSerial
                                       ? ExecuteSerial(round)
                                       : ExecuteParallel(round);
    if (outcome.ok()) {
      pending->out = std::move(outcome).value();
    } else {
      submitted = outcome.status();
    }
  }
  // The batch span closes at submission on every engine: no trace
  // operation runs between the dispatch returning and the span end.
  if (span_id >= 0) trace->EndSpan(span_id);
  return submitted;
}

Status RoundEngine::SubmitExecutor(PendingRound* pending, bool overlapped) {
  const EngineRound& round = pending->round;
  RoundOutcome& out = pending->out;
  out.issued = round.TotalPairs();
  issued_ += out.issued;
  out.winners.resize(round.units.size());
  out.losses.resize(round.units.size());

  // The overlap guard, run before the round reserves anything: a -1 in the
  // cache can then only be a reservation of another round still in flight,
  // so finding one means the source emitted a round overlapping it — a
  // CanPipelineNextRound contract violation, reported instead of silently
  // racing on the answer, and leaving nothing of this round behind.
  if (overlapped) {
    for (const RoundUnit& unit : round.units) {
      for (const ComparisonPair& pair : PairsOf(unit, &unit_pairs_)) {
        const uint64_t key = PackPairKey(pair.first, pair.second);
        const PairValuePtr slot = cache_->Find(key);
        if (slot == nullptr || *slot != -1) continue;
        return Status::Internal(
            "pipelined round depends on a pair still in flight "
            "(RoundPairKey " +
            std::to_string(key) + " = {" + std::to_string(pair.first) +
            ", " + std::to_string(pair.second) + "}, source round index " +
            std::to_string(pending->source_round_index) +
            "); the RoundSource violated the CanPipelineNextRound "
            "disjointness rule");
      }
    }
  }

  // The resolve: batch only the misses (including pairs an earlier faulty
  // attempt parked). A pruning drive probes read-only, unit by unit, and
  // leaves the memo to CommitRound; so does an unmemoized one, whose memo
  // is empty, so every listed pair is a miss, repeats included. There a
  // player unit's memo hits go straight into its matrix (ProbePlayers)
  // and only its other pairs are sent, in row-major order, to be folded in
  // at the read-back; a lone pair unit over a memo with nothing to read is
  // sent as it is. Otherwise one grow per round, then one batch insert per
  // unit reserves each miss with -1 (an unresolved parking is rewritten to
  // it), so a repeat of the pair later in the round finds the reservation
  // and is sent once. A player unit's pairs are written out in order
  // there. A bought pair's first occurrence is -1 in its winners slot, a
  // repeat kRepeatedPair, until the read-back.
  std::vector<ComparisonPair>& misses = pending->misses;
  const bool reserve = ReservesMisses();
  pending->direct = !reserve && !MemoReadable() && round.units.size() == 1 &&
                    round.units[0].players.empty();
  if (reserve) cache_->Reserve(out.issued);
  for (size_t u = 0; u < round.units.size() && !pending->direct; ++u) {
    const RoundUnit& unit = round.units[u];
    std::vector<ElementId>& winners = out.winners[u];
    if (!reserve && unit.players.empty()) {
      ProbeUnit(unit.pairs, &winners, &misses);
      continue;
    }
    if (!reserve) {
      const std::vector<ElementId>& players = unit.players;
      LossMatrix& losses = out.losses[u];
      losses.Reset(players.size());
      pending->player_hits.resize(round.units.size());
      std::vector<uint64_t>& hits = pending->player_hits[u];
      if (MemoReadable()) {
        if (unit_scratch_.empty()) unit_scratch_.resize(1);
        ProbePlayers(unit, &losses, &hits, &unit_scratch_[0].seats);
      }
      ForEachUnskippedPair(players.size(), losses.stride(), hits,
                           [&](size_t i, size_t j) {
                             misses.push_back({players[i], players[j]});
                           });
      continue;
    }
    const std::span<const ComparisonPair> pairs = PairsOf(unit, &unit_pairs_);
    winners.resize(pairs.size());
    const std::span<const PairSlotRef> slots =
        PinSlots(pairs, /*absent_value=*/-1);
    for (size_t p = 0; p < pairs.size(); ++p) {
      const PairSlotRef& slot = slots[p];
      if (!slot.inserted) {
        const ElementId cached = *slot.value;
        if (cached >= 0) {
          winners[p] = cached;
          continue;
        }
        if (cached == -1) {
          winners[p] = kRepeatedPair;
          pending->repeats.push_back(pairs[p]);
          continue;
        }
        *slot.value = -1;
      }
      misses.push_back(pairs[p]);
      winners[p] = -1;
    }
  }
  const std::vector<ComparisonPair>& batch =
      pending->direct ? round.units[0].pairs : misses;
  if (const int64_t hits = out.issued - static_cast<int64_t>(batch.size());
      hits > 0) {
    cache_hits_ += hits;
    if (AlgoTrace* trace = CurrentTrace()) trace->RecordCacheHits(hits);
  }

  // The dispatch, the one step the two executor engines do differently.
  // The synchronous engine pays the simulated crowd round trip here,
  // answered or not: a rejected submission still cost the latency. The
  // pipelined one computes at submission too (core/async_executor.h) and
  // banks only the latency; a speculative round being confirmed already
  // holds its handle, and ConfirmBatch back-dates its deadline to the
  // speculative start. Either way paid_delta is final here, which keeps
  // the budget gate and every counter identical at every depth.
  const int64_t paid_before = executor_->comparisons();
  if (async_ == nullptr) {
    pending->results = executor_->TryExecuteBatch(batch);
    SleepOutLatency(executor_);
  } else {
    Status dispatched = Status::OK();
    if (pending->handle >= 0) {
      dispatched = async_->ConfirmBatch(pending->handle, batch);
    } else if (Result<int64_t> handle = async_->SubmitBatchAsync(batch);
               handle.ok()) {
      pending->handle = *handle;
    } else {
      dispatched = handle.status();
    }
    if (!dispatched.ok()) {
      if (reserve) StoreAnswers(misses, nullptr);
      return dispatched;
    }
  }
  out.paid_delta = executor_->comparisons() - paid_before;
  return Status::OK();
}

Status RoundEngine::Complete(PendingRound* pending) {
  if (backend_ != Backend::kExecutor) return Status::OK();
  const Result<std::vector<BatchTaskResult>> results =
      async_ != nullptr ? async_->Wait(pending->handle)
                        : std::move(pending->results);
  const std::vector<BatchTaskResult>* answers =
      results.ok() ? &*results : nullptr;
  const std::vector<ComparisonPair>& misses = pending->misses;
  const std::vector<ComparisonPair>& sent =
      pending->direct ? pending->round.units[0].pairs : misses;
  CROWDMAX_CHECK(answers == nullptr || answers->size() == sent.size());
  if (ReservesMisses()) StoreAnswers(misses, answers);
  RoundOutcome& out = pending->out;
  // A collected answer; a pair without one is counted unresolved.
  const auto answer = [&](size_t m) {
    const ElementId winner = AnswerOf(answers, m);
    CROWDMAX_DCHECK(winner == sent[m].first || winner == sent[m].second ||
                    winner == kUnresolvedWinner);
    if (winner == kUnresolvedWinner) ++out.unresolved;
    return winner;
  };
  if (pending->direct) {
    std::vector<ElementId>& winners = out.winners[0];
    winners.resize(sent.size());
    for (size_t p = 0; p < sent.size(); ++p) winners[p] = answer(p);
    return TakeFault(results, &out);
  }

  // One walk in round order fills each bought pair's first occurrence from
  // its answer (kUnresolvedWinner when the batch failed) and each repeat
  // from the cache, which now holds that answer. A read-only resolve's
  // hits already hold their answers, and its player units fold the
  // answers to the pairs they sent into their matrices.
  size_t next_miss = 0;
  size_t next_repeat = 0;
  for (size_t u = 0; u < out.winners.size(); ++u) {
    const RoundUnit& unit = pending->round.units[u];
    if (!unit.players.empty() && !ReservesMisses()) {
      const std::vector<uint64_t>& hits = pending->player_hits[u];
      fold_answers_.resize(
          static_cast<size_t>(unit.NumPairs() - CountBits(hits)));
      for (ElementId& winner : fold_answers_) winner = answer(next_miss++);
      FoldAnswers(unit.players, hits, fold_answers_, &out.losses[u]);
      continue;
    }
    std::vector<ElementId>& winners = out.winners[u];
    for (ElementId& winner : winners) {
      if (winner == -1) {
        winner = answer(next_miss++);
        continue;
      }
      if (winner == kRepeatedPair) {
        const ComparisonPair& pair = pending->repeats[next_repeat++];
        winner = *cache_->Find(PackPairKey(pair.first, pair.second));
        if (winner == kUnresolvedWinner) ++out.unresolved;
      }
      CROWDMAX_CHECK(winner >= 0 || winner == kUnresolvedWinner);
    }
    if (unit.players.empty()) continue;
    out.losses[u].Reset(unit.players.size());
    FoldAnswers(unit.players, {}, winners, &out.losses[u]);
    winners.clear();
  }
  return TakeFault(results, &out);
}

void RoundEngine::StoreAnswers(std::span<const ComparisonPair> misses,
                               const std::vector<BatchTaskResult>* answers) {
  const std::span<const PairSlotRef> slots =
      PinSlots(misses, /*absent_value=*/kUnresolvedWinner);
  for (size_t m = 0; m < misses.size(); ++m) {
    CROWDMAX_DCHECK(!slots[m].inserted && *slots[m].value == -1);
    *slots[m].value = AnswerOf(answers, m);
  }
}

std::span<const PairSlotRef> RoundEngine::PinSlots(
    std::span<const ComparisonPair> pairs, ElementId absent_value) {
  round_keys_.clear();
  for (const ComparisonPair& pair : pairs) {
    round_keys_.push_back(PackPairKey(pair.first, pair.second));
  }
  round_slots_.resize(round_keys_.size());
  cache_->InsertBatch(round_keys_, absent_value, round_slots_);
  return round_slots_;
}

void RoundEngine::ProbeUnit(std::span<const ComparisonPair> pairs,
                            std::vector<ElementId>* winners,
                            std::vector<ComparisonPair>* misses) const {
  if (!MemoReadable()) {
    winners->assign(pairs.size(), -1);
    misses->insert(misses->end(), pairs.begin(), pairs.end());
    return;
  }
  CROWDMAX_DCHECK(ledger_.empty());
  const PairTable& memo = *cache_;
  winners->resize(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    const ComparisonPair& pair = pairs[p];
    const ConstPairValuePtr slot =
        memo.Find(PackPairKey(pair.first, pair.second));
    if (slot != nullptr && *slot != kUnresolvedWinner) {
      (*winners)[p] = *slot;
      continue;
    }
    (*winners)[p] = -1;
    misses->push_back(pair);
  }
}

int64_t RoundEngine::ProbePlayers(const RoundUnit& unit, LossMatrix* losses,
                                  std::vector<uint64_t>* hits,
                                  std::vector<uint64_t>* seats) const {
  const std::vector<ElementId>& players = unit.players;
  const size_t k = players.size();
  const size_t stride = losses->stride();
  hits->assign(k * stride, 0);
  if (!cache_->empty()) {
    const PairTable& memo = *cache_;
    for (size_t i = 0; i < k; ++i) {
      const ElementId a = players[i];
      uint64_t* hit_row = &(*hits)[i * stride];
      for (size_t j = i + 1; j < k; ++j) {
        const ElementId b = players[j];
        const ConstPairValuePtr slot = memo.Find(PackPairKey(a, b));
        if (slot == nullptr) continue;
        const ElementId winner = *slot;
        if (winner == kUnresolvedWinner) continue;
        hit_row[j >> 6] |= uint64_t{1} << (j & 63);
        if (winner == b) {
          losses->SetLost(i, j);
        } else {
          losses->SetLost(j, i);
        }
      }
    }
  }
  // A pair both hold agrees: the ledger's later units found the table's
  // answers before they could buy a pair again.
  if (!ledger_.empty()) ledger_.Probe(players, losses, *hits, seats);
  return CountBits(*hits);
}

Result<int64_t> RoundEngine::AnswerUnit(const RoundUnit& unit,
                                        Comparator* comparator,
                                        UnitScratch* scratch,
                                        std::vector<ElementId>* winners) const {
  // With nothing to probe (Phase 1's first round, or no memo) the votes
  // are drawn straight from the unit's pairs into `winners`.
  std::span<const ComparisonPair> misses = unit.pairs;
  std::vector<ElementId>* answers = winners;
  if (MemoReadable()) {
    scratch->misses.clear();
    ProbeUnit(unit.pairs, winners, &scratch->misses);
    misses = scratch->misses;
    answers = &scratch->answers;
  }
  answers->resize(misses.size());
  if (Status voted = ShortAnswer(Vote(comparator, misses, *answers), misses);
      !voted.ok()) {
    return voted;
  }
  if (answers != winners) {
    size_t cursor = 0;
    for (ElementId& winner : *winners) {
      if (winner == -1) winner = (*answers)[cursor++];
    }
    CROWDMAX_CHECK(cursor == misses.size());
  }
  for (size_t p = 0; p < unit.pairs.size(); ++p) {
    CROWDMAX_DCHECK((*winners)[p] == unit.pairs[p].first ||
                    (*winners)[p] == unit.pairs[p].second);
  }
  return static_cast<int64_t>(misses.size());
}

Result<int64_t> RoundEngine::AnswerPlayers(const RoundUnit& unit,
                                           Comparator* comparator,
                                           UnitScratch* scratch,
                                           LossMatrix* losses) const {
  const std::vector<ElementId>& players = unit.players;
  losses->Reset(players.size());
  std::span<const uint64_t> skip;
  int64_t bought = unit.NumPairs();
  if (MemoReadable()) {
    bought -= ProbePlayers(unit, losses, &scratch->hits, &scratch->seats);
    skip = scratch->hits;
  }
  int64_t answered = 0;
  if (VoteBatchComparator* batch = comparator->AsVoteBatch()) {
    answered = batch->GenerateTournament(players, skip, losses);
  } else {
    // As Vote: the per-call loop stops at the pair the batch call refuses.
    const int64_t limit = comparator->IdLimit();
    bool refused = false;
    ForEachUnskippedPair(
        players.size(), losses->stride(), skip, [&](size_t i, size_t j) {
          refused = refused || !PairBelow({players[i], players[j]}, limit);
          if (refused) return;
          const ElementId winner = comparator->Compare(players[i], players[j]);
          CROWDMAX_DCHECK(winner == players[i] || winner == players[j]);
          if (winner == players[j]) {
            losses->SetLost(i, j);
          } else if (winner == players[i]) {
            losses->SetLost(j, i);
          }
          ++answered;
        });
  }
  if (answered < bought) {
    return ShortTournament(answered, players, losses->stride(), skip);
  }
  return bought;
}

void RoundEngine::CommitRound(const EngineRound& round,
                              RoundOutcome* outcome,
                              std::span<const ElementId> named) {
  if (prune_) ledger_.Name(named);
#ifndef NDEBUG
  // Promise (b): an element of this round the source did not name may
  // never be issued again.
  if (prune_) {
    const auto retire = [this](ElementId e) {
      if (ledger_.NamedIndex(e) < 0) retired_.insert(e);
    };
    for (const RoundUnit& unit : round.units) {
      for (ElementId e : unit.players) retire(e);
      for (const ComparisonPair& pair : unit.pairs) {
        retire(pair.first);
        retire(pair.second);
      }
    }
  }
#endif
  // A pruning commit keeps only answered pairs of two named elements; with
  // nothing named, nothing can be asked again and the walk is skipped.
  if (prune_ && named.empty()) return;
  // One grow per commit: room for every pair the units below can write.
  int64_t most = 0;
  for (const RoundUnit& unit : round.units) {
    if (!prune_ || unit.players.empty()) most += unit.NumPairs();
  }
  cache_->Reserve(most);
  for (size_t u = 0; u < round.units.size(); ++u) {
    const RoundUnit& unit = round.units[u];
    round_keys_.clear();
    round_key_winners_.clear();
    const auto keep = [this](ElementId a, ElementId b, ElementId winner) {
      round_keys_.push_back(PackPairKey(a, b));
      round_key_winners_.push_back(winner);
    };
    if (!unit.players.empty()) {
      const std::vector<ElementId>& players = unit.players;
      if (!prune_) {
        ForEachAnsweredPair(
            outcome->losses[u], players.size(), [](size_t x) { return x; },
            [&](size_t x, size_t y, bool x_lost) {
              keep(players[x], players[y], x_lost ? players[y] : players[x]);
            });
        InsertAnswers(cache_);
        continue;
      }
      // Commit by survivor: the unit's matrix goes to the ledger with a
      // seat for each named player, when it has a pair of them; no pair
      // is written.
      commit_rows_.clear();
      commit_elements_.clear();
      for (size_t i = 0; i < players.size(); ++i) {
        if (const int64_t element = ledger_.NamedIndex(players[i]);
            element >= 0) {
          commit_rows_.push_back(i);
          commit_elements_.push_back(element);
        }
      }
      if (commit_rows_.size() >= 2) {
        ledger_.AddUnit(std::move(outcome->losses[u]), commit_rows_,
                        commit_elements_);
      }
      continue;
    }
    const std::vector<ComparisonPair>& pairs = unit.pairs;
    const std::vector<ElementId>& winners = outcome->winners[u];
    for (size_t p = 0; p < pairs.size(); ++p) {
      if (prune_ && (ledger_.NamedIndex(pairs[p].first) < 0 ||
                     ledger_.NamedIndex(pairs[p].second) < 0 ||
                     winners[p] == kUnresolvedWinner)) {
        continue;
      }
      keep(pairs[p].first, pairs[p].second, winners[p]);
    }
    InsertAnswers(cache_);
  }
}

void RoundEngine::InsertAnswers(PairTable* table) {
  // Absent keys go in as kUnresolvedWinner, so one test finds both them
  // and the sentinels an earlier faulty phase parked in a shared cache:
  // either was bought and takes its evidence. A pair already answered
  // (earlier in the same batch included) keeps its answer.
  round_slots_.resize(round_keys_.size());
  table->InsertBatch(round_keys_, kUnresolvedWinner, round_slots_);
  for (size_t k = 0; k < round_keys_.size(); ++k) {
    if (*round_slots_[k].value == kUnresolvedWinner) {
      *round_slots_[k].value = round_key_winners_[k];
    }
  }
}

void RoundEngine::WriteLedger(PairTable* table) {
  round_keys_.clear();
  round_key_winners_.clear();
  ledger_.ForEachAnswered([this](ElementId a, ElementId b, ElementId winner) {
    round_keys_.push_back(PackPairKey(a, b));
    round_key_winners_.push_back(winner);
  });
  InsertAnswers(table);
}

void RoundEngine::SpillLedger() {
  WriteLedger(cache_);
  ledger_.Clear();
}

void RoundEngine::CheckRound(const EngineRound& round) const {
#ifndef NDEBUG
  bool has_pairs = false;
  bool has_players = false;
  std::unordered_set<ElementId> seen_players;
  PairTable seen_pairs;
  for (const RoundUnit& unit : round.units) {
    CROWDMAX_DCHECK((unit.pairs.empty() || unit.players.empty()) &&
                    "a unit carries pairs or players, never both");
    has_pairs = has_pairs || !unit.pairs.empty();
    has_players = has_players || !unit.players.empty();
    // Player units are checked per element: a repeated player would repeat
    // its pairs, and promise (b) holds for every pair once it holds for
    // every player.
    for (ElementId e : unit.players) {
      const bool first = seen_players.insert(e).second;
      CROWDMAX_DCHECK(first && "player units of a round share an element");
      CROWDMAX_DCHECK(retired_.count(e) == 0 &&
                      "pruning source issued an element it retired");
    }
    if (!prune_) continue;
    for (const ComparisonPair& pair : unit.pairs) {
      CROWDMAX_DCHECK(retired_.count(pair.first) == 0 &&
                      retired_.count(pair.second) == 0 &&
                      "pruning source issued an element it retired");
      bool fresh = false;
      seen_pairs.Insert(PackPairKey(pair.first, pair.second), pair.first,
                        &fresh);
      CROWDMAX_DCHECK(fresh && "pruning source repeated a pair in a round");
    }
  }
  CROWDMAX_DCHECK(!(has_pairs && has_players) &&
                  "a round mixes player units and pair units");
#else
  (void)round;
#endif
}

Result<DriveResult> RoundEngine::Drive(RoundSource* source,
                                       const DriveOptions& options) {
  CROWDMAX_CHECK(source != nullptr);
  DriveResult drive;
  int64_t paid_start = paid();
  int64_t open_round_id = -1;
  AlgoTrace* trace = CurrentTrace();
  // The rounds submitted and not yet consumed, oldest first: at most
  // max_in_flight_, which only a pipelined engine sets above 1. At depth 1
  // a round is submitted only into an empty window and retired before the
  // next one is asked for, so the drive never overlaps, never speculates
  // and never consults the pipelining hooks.
  std::deque<std::unique_ptr<PendingRound>> in_flight;

  // A staged restore rebuilds the whole run — engine counters, cache,
  // comparator/executor stack, source — before the first round, so the
  // drive below continues exactly where the checkpointed one stopped.
  if (checkpoint_ != nullptr && checkpoint_->PendingRestore() != nullptr) {
    Status restored = RestoreCheckpoint(
        source, *checkpoint_->PendingRestore(), &paid_start, &drive);
    if (!restored.ok()) return restored;
    checkpoint_->MarkRestored();
  }

  // Memo pruning (DESIGN.md §14), decided once per drive. A shared cache
  // keeps every pair: another engine or query may ask any of them. So does
  // a pipelined engine, whose in-flight rounds reserve their pairs in it.
  prune_ = async_ == nullptr && memoize_ && cache_ == &owned_cache_ &&
           source->NamesRecurringElements();
  retired_.clear();
  // The rounds whose outcomes reach the memo only through CommitRound:
  // every round of a pruning drive, every memoized parallel round (its
  // barrier merge), and every memoized serial round of player units.
  const auto commits = [&](const EngineRound& round) {
    if (prune_) return true;
    return memoize_ && (backend_ == Backend::kParallel ||
                        (backend_ == Backend::kSerial && HasPlayerUnits(round)));
  };

  const auto close_round_span = [&] {
    if (open_round_id >= 0) {
      trace->EndSpan(open_round_id);
      open_round_id = -1;
    }
  };
  // Abort-path cleanup: park every in-flight round's reserved misses so a
  // shared cache is not left holding -1 reservations, and cancel the async
  // handles — computed answers abandoned unconsumed are banked-answer
  // refunds the adapter accounts. Speculative rounds reserved nothing in
  // the cache and computed nothing, so cancellation alone unwinds them;
  // the source is told its speculation died with the drive. A round whose
  // own submission failed is not in the window: Submit left nothing of it.
  const auto abandon_in_flight = [&] {
    bool aborted_speculation = false;
    for (const auto& pending : in_flight) {
      if (pending->handle >= 0) {
        // Failure here is unreachable on the adapter (the handle is live);
        // on this abort path the refund count is dropped regardless.
        async_->CancelBatch(pending->handle);
      }
      if (pending->speculative) {
        aborted_speculation = true;
        continue;
      }
      if (ReservesMisses()) StoreAnswers(pending->misses, nullptr);
    }
    in_flight.clear();
    if (aborted_speculation) source->OnSpeculationAborted();
  };
  // Retires the oldest in-flight round — strictly in submission order, so
  // the source sees the same callback sequence at every depth: read back
  // its answers, record a comparator backend's cell, deliver the outcome,
  // commit it to the memo, and offer the checkpoint boundary. Never called
  // on a speculative round: the reconcile branch below turns the window
  // firm (or cancels it) before anything in it can retire.
  const auto complete_oldest = [&]() -> Status {
    const std::unique_ptr<PendingRound> pending = std::move(in_flight.front());
    in_flight.pop_front();
    CROWDMAX_CHECK(!pending->speculative);
    Status done = Complete(pending.get());
    if (!done.ok()) return done;
    const EngineRound& round = pending->round;
    const RoundOutcome& outcome = pending->out;
    // Comparator-backend cell recording at the round barrier: every paid
    // comparison came back answered (faults live in the executor stack)
    // and the issued-minus-paid remainder was served by the memo cache.
    if (backend_ != Backend::kExecutor && round.record_round_cell &&
        trace != nullptr) {
      trace->RecordAnsweredCell(outcome.paid_delta, outcome.issued);
    }
    Status consumed = source->ConsumeOutcome(round, outcome);
    if (round.close_round) close_round_span();
    // Commit before the checkpoint boundary below, so a snapshot holds
    // every pair a later round can ask; nothing stays pending between
    // engine rounds.
    if (commits(round)) {
      CommitRound(round, &pending->out,
                  prune_ ? source->RecurringElements()
                         : std::span<const ElementId>());
    }
    if (!consumed.ok()) return consumed;
    ++drive.rounds_executed;
    // Checkpoints only at fully-drained boundaries: nothing in flight and
    // no open trace span, so the serialized state has no half-submitted
    // rounds or -1 cache reservations in it. The controller may snapshot
    // here (cadence) or kill the run (chaos plan); a kAborted from the
    // plan propagates out like any drive error.
    if (checkpoint_ != nullptr && in_flight.empty() && open_round_id < 0) {
      Status boundary = checkpoint_->OnRoundBoundary(
          [&] { return SerializeCheckpoint(source, paid_start, drive); });
      if (!boundary.ok()) return boundary;
    }
    return Status::OK();
  };
  // Retires every in-flight round, oldest first.
  const auto drain = [&]() -> Status {
    while (!in_flight.empty()) {
      Status retired = complete_oldest();
      if (!retired.ok()) return retired;
    }
    return Status::OK();
  };
  const auto fail = [&](Status status) -> Result<DriveResult> {
    abandon_in_flight();
    close_round_span();
    return status;
  };

  // Speculation is legal only on budget-free drives: the budget gate is
  // an emission-time predicate of the synchronous schedule, and a
  // speculative round has no emission point yet — rather than approximate
  // the gate, budget-gated drives degrade to firm pipelining
  // (DESIGN.md §15).
  const bool allow_speculation = options.max_comparisons == 0;

  while (true) {
    // The in-flight window is always a firm prefix followed by a
    // speculative suffix. The front turning speculative means every firm
    // outcome has been consumed: the prediction can be judged now.
    if (!in_flight.empty() && in_flight.front()->speculative) {
      const SpeculationVerdict verdict = source->ReconcileSpeculation();
      if (verdict == SpeculationVerdict::kConfirmed) {
        // Turn the whole window firm, in emission order. Each round's
        // deterministic half (cache resolution, batch span, executor
        // compute, paid accounting) runs here — the exact program point
        // where the synchronous drive would have submitted it — while its
        // latency deadline stays anchored at the speculative start. Only
        // the rounds confirmed before it are in flight with it.
        for (size_t i = 0; i < in_flight.size(); ++i) {
          PendingRound* pending = in_flight[i].get();
          CROWDMAX_CHECK(pending->speculative);
          Status confirmed = Submit(pending, /*overlapped=*/i > 0);
          if (!confirmed.ok()) return fail(confirmed);
          pending->speculative = false;
          ++speculation_hits_;
        }
        ObserveSpeculation(static_cast<int64_t>(in_flight.size()), 0, 0);
        continue;
      }
      // Misprediction: cancel the whole window before anything in it runs,
      // charge the comparisons the rounds *would* have bought (on a
      // memoizing engine deduped against the cache and each other, the way
      // submission would have deduped them; every pair otherwise) as
      // first-class wasted spend, and let the source roll its emission
      // bookkeeping back to consumed truth.
      int64_t wasted = 0;
      int64_t cancelled_rounds = 0;
      std::unordered_set<uint64_t> would_buy;
      for (const auto& pending : in_flight) {
        CROWDMAX_CHECK(pending->speculative);
        for (const RoundUnit& unit : pending->round.units) {
          if (!memoize_) {
            wasted += unit.NumPairs();
            continue;
          }
          for (const ComparisonPair& pair : PairsOf(unit, &unit_pairs_)) {
            const uint64_t key = PackPairKey(pair.first, pair.second);
            const PairValuePtr slot = cache_->Find(key);
            if ((slot == nullptr || *slot == kUnresolvedWinner) &&
                would_buy.insert(key).second) {
              ++wasted;
            }
          }
        }
        async_->CancelBatch(pending->handle);  // unconfirmed: nothing banked
        ++speculation_mispredicts_;
        ++cancelled_rounds;
      }
      in_flight.clear();
      source->OnSpeculationAborted();
      if (wasted > 0) {
        executor_->ChargeCancelledSpeculation(wasted);
        speculation_wasted_ += wasted;
      }
      ObserveSpeculation(0, cancelled_rounds, wasted);
      continue;
    }

    // Emission decision. Firm emission needs the window tail firm (a firm
    // round behind a speculative one would reorder the consume sequence);
    // speculative emission needs a source prediction and a budget-free
    // drive. When neither is legal, retire the oldest round — the source
    // needs an outcome (or the window is full) before anything new can go
    // out.
    const bool window_full =
        static_cast<int64_t>(in_flight.size()) >= max_in_flight_;
    const bool tail_speculative =
        !in_flight.empty() && in_flight.back()->speculative;
    const bool emit_firm =
        in_flight.empty() ||
        (!window_full && !tail_speculative && source->CanPipelineNextRound());
    if (!emit_firm && !window_full && allow_speculation &&
        source->CanSpeculateNextRound()) {
      EngineRound round;
      Result<bool> offered = source->SpeculateNextRound(&round);
      if (!offered.ok()) return fail(offered.status());
      if (*offered) {
        // Speculative rounds may not open round spans: that is an effect
        // of the synchronous schedule, which this round has not joined yet.
        CROWDMAX_CHECK(round.open_round == 0);
        CheckRound(round);
        auto pending = std::make_unique<PendingRound>();
        pending->speculative = true;
        pending->source_round_index =
            drive.rounds_executed + static_cast<int64_t>(in_flight.size());
        pending->round = std::move(round);
        Result<int64_t> handle = async_->SubmitSpeculativeBatch();
        if (!handle.ok()) return fail(handle.status());
        pending->handle = *handle;
        in_flight.push_back(std::move(pending));
        ++speculative_rounds_;
        ++overlapped_rounds_;  // a speculative round overlaps by definition
        const int64_t depth = static_cast<int64_t>(in_flight.size());
        max_in_flight_observed_ = std::max(max_in_flight_observed_, depth);
        ObservePipelineDepth(depth);
        continue;
      }
      // Declined after all: fall through to retire.
    }

    // Retire the oldest round whenever the window is full or the source
    // needs an outcome before it can emit again.
    if (!emit_firm) {
      Status retired = complete_oldest();
      if (!retired.ok()) return fail(retired);
      continue;
    }

    EngineRound round;
    Result<bool> more = source->NextRound(&round);
    if (!more.ok()) return fail(more.status());
    if (!*more) break;

    // Budget gate, at the round boundary: a round whose worst case would
    // exceed the cap never starts (memoization hits could make it cheaper,
    // but a guaranteed-affordable round is what the cap promises). paid()
    // is final for every submitted round (compute-at-submit), so the gate
    // evaluates the synchronous drive's predicate at every depth. In-flight
    // rounds are drained before the source hears about the stop,
    // preserving its callback order.
    if (options.max_comparisons > 0 &&
        (paid() - paid_start) + round.TotalPairs() > options.max_comparisons) {
      if (Status drained = drain(); !drained.ok()) return fail(drained);
      drive.stopped_by_budget = true;
      source->OnBudgetStop();
      break;
    }
    if (round.open_round > 0 && trace != nullptr) {
      CROWDMAX_CHECK(open_round_id < 0);
      open_round_id = trace->BeginRound(round.open_round);
    }
    CheckRound(round);
    // The ledger answers only a pruning drive's player units; every other
    // round reads the memo pair by pair, so it gets the ledger's pairs in
    // the pair table first.
    if (!ledger_.empty() && (!prune_ || !HasPlayerUnits(round))) {
      SpillLedger();
    }
    const bool overlapped = !in_flight.empty();
    auto pending = std::make_unique<PendingRound>();
    pending->source_round_index =
        drive.rounds_executed + static_cast<int64_t>(in_flight.size());
    pending->round = std::move(round);
    Status submitted = Submit(pending.get(), overlapped);
    if (!submitted.ok()) return fail(submitted);
    in_flight.push_back(std::move(pending));
    if (async_ != nullptr) {
      if (overlapped) ++overlapped_rounds_;
      const int64_t depth = static_cast<int64_t>(in_flight.size());
      max_in_flight_observed_ = std::max(max_in_flight_observed_, depth);
      ObservePipelineDepth(depth);
    }
  }

  if (Status drained = drain(); !drained.ok()) return fail(drained);
  close_round_span();
  return drive;
}

}  // namespace crowdmax
