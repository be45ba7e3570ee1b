// The round-based execution core: one engine for every comparison loop.
//
// The paper defines every algorithm in terms of logical steps — "in the
// s-th logical step, a batch B_s of pairwise comparisons is sent to the
// platform" (Section 3, Venetis et al.'s step-count time measure). The
// round structure is the algorithm-independent part: an algorithm only
// decides *which* independent comparisons the next step needs (a
// RoundSource), while the engine owns everything the serial, parallel and
// batched paths used to duplicate — pair memoization, budget enforcement
// at round boundaries, Comparator::Fork seeding discipline, BatchExecutor
// decoration with kUnresolved/no-evidence semantics, and exactly-once
// trace-cell attribution under the RecordsTraceCells gate.
//
// A round is a list of RoundUnits of one kind: pair units list their
// comparisons, player units name an all-play-all group and stand for all
// of its pairs, answered into a LossMatrix (DESIGN.md §10). Every backend
// answers both kinds with the same draws, counters and cache contents.
//
// Backends (see RoundEngine::Backend):
//  - kSerial: pairs run through the caller's Comparator in emission order;
//    the optional engine-owned pair cache buys each pair once (unordered
//    PairKey, paid = misses only). It keeps every bought pair unless the
//    source names the elements that can recur
//    (RoundSource::NamesRecurringElements), in which case it keeps only
//    the pairs a later round can ask again. A player unit resolves
//    read-only (memo hits straight into its matrix, the rest answered by
//    one VoteBatchComparator::GenerateTournament call) and reaches the
//    memo after the consume.
//  - kParallel: one Comparator::Fork per RoundUnit, seeds drawn in unit
//    order from one persistent Rng *before* dispatch, per-fork counts
//    merged into the parent at the single-threaded round barrier, and the
//    memo cache treated as a read-only snapshot during the round with
//    fresh outcomes committed in unit order after the source consumed
//    them. This is the PR 1 discipline previously implemented by
//    ParallelGroupRunner and the per-match forks in the Venetis ladder;
//    seeded runs are bit-identical for any thread count. Player units
//    resolve as on kSerial, one per fork.
//  - kExecutor: the whole round's cache misses go to a BatchExecutor as
//    one fallible batch. Faulted pairs are parked as kUnresolvedWinner in
//    the cache (never committed, on a pruning drive; either way re-issued
//    on the next resolve) and surface to the source as no-evidence
//    outcomes, so partial-result semantics (no eviction without evidence)
//    stay with the algorithm while retry/quorum live in the executor
//    stack. The synchronous (CreateBatched) and pipelined (CreatePipelined)
//    engines share one round: a memoizing resolve reserves each miss with
//    one batch insert per unit, the read-back stores the answers with one
//    batch insert over the misses and fills the winners. They differ only
//    in how the batch is dispatched. A pruning or unmemoized round
//    resolves read-only (an unmemoized one over an empty memo, so every
//    listed pair is bought, repeats included, and nothing is stored); a
//    lone pair unit with nothing to read in the memo goes to the executor
//    as it is. A player unit's pairs are written out in order, or on a
//    read-only round only those the memo did not answer, and their
//    answers folded into its matrix; a faulted pair sets neither bit.
// On a pruning drive every backend but the pipelined one keeps its player
// units' memo as a ledger: each committed unit's loss matrix and a seat
// (unit, row) for each player the source named after it. A later group
// finds its memo hits by walking its players' seats, so pairs whose
// players never met cost nothing, and no pair is written anywhere
// (DESIGN.md §14).
//
// One drive loop: every engine runs the in-flight window of DESIGN.md
// §11.2. The serial, parallel and synchronous executor engines run it at
// depth 1, where a round is submitted, completed, consumed and committed
// before the next is asked for; a pipelined engine runs it at its
// max_in_flight.
//
// One trace shape on every backend: EngineRound names the round's batch
// span, opened around its resolve, and where a round span opens and
// closes. The unit kind changes neither: a round of player units records
// the spans and cache hits of the same pairs issued as pair units. Worker
// threads never touch the trace.

#ifndef CROWDMAX_CORE_ROUND_ENGINE_H_
#define CROWDMAX_CORE_ROUND_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/comparator.h"
#include "core/loss_matrix.h"
#include "core/pair_table.h"

namespace crowdmax {

class BatchExecutor;
struct BatchTaskResult;
class AsyncBatchExecutor;
class CheckpointController;
class CheckpointReader;
class CheckpointWriter;

// ComparisonPair (one comparison task, argument order preserved) lives in
// core/comparator.h, shared with the batch vote interface.

// kUnresolvedWinner, the winner sentinel of a pair with no evidence this
// round, lives in core/pair_table.h beside the cache word that encodes it.

/// One independently-executable set of comparisons within a round. On the
/// parallel backend a unit is the forking granularity (one comparator fork
/// per unit — a filter group, a Marcus group, a Venetis match); pairs
/// within a unit run sequentially on the fork. A unit is one of two kinds
/// and carries pairs or players, never both:
///  - a pair unit lists its comparisons in `pairs`, and may repeat a pair
///    (Venetis votes);
///  - a player unit names distinct ids in `players` and stands for every
///    pair (players[i], players[j]) with i < j, in row-major order: one
///    all-play-all tournament, answered into a LossMatrix. The player
///    units of one round share no element, and a round holding player
///    units holds no pair unit.
/// Debug builds CHECK the kind and disjointness rules on every round.
struct RoundUnit {
  std::vector<ComparisonPair> pairs;
  std::vector<ElementId> players;

  /// The comparisons the unit stands for: pairs.size(), or k(k-1)/2 for
  /// k players.
  int64_t NumPairs() const;
};

/// One engine round: the next set of independent comparisons, plus its
/// trace shape, which every backend honours. An algorithm round may span
/// several engine rounds when it has internal barriers (2-MaxFind picks
/// its pivot between the sample tournament and the scan).
struct EngineRound {
  std::vector<RoundUnit> units;

  /// Open a kBatch span with this label around the round's resolve (e.g.
  /// 2-MaxFind's "sample"/"scan"/"final"). nullptr = no span.
  const char* span = nullptr;

  /// >0 opens a round span with that number before execution; close_round
  /// ends it after the source consumed the outcome (so barrier tallies
  /// land inside the span). A span may stay open across engine rounds
  /// (open on the sample round, close on the scan round).
  int64_t open_round = 0;
  bool close_round = false;

  /// Comparator backends only: record this round's (paid, issued) deltas
  /// as one trace cell at the barrier — dispatched = answered = paid,
  /// cache_hits = issued - paid. On the executor backend cells are
  /// recorded by the executor wrappers themselves (RecordsTraceCells gate)
  /// and the engine records only cache hits, so attribution stays
  /// exactly-once.
  bool record_round_cell = false;

  int64_t TotalPairs() const;
};

// LossMatrix, a player unit's outcome, lives in core/loss_matrix.h,
// shared with the tournament call of the batch vote interface.

/// What one round bought, per unit. winners[u][p] answers pair unit u's
/// units[u].pairs[p]; a pair with no evidence (executor faults) carries
/// kUnresolvedWinner. losses[u] is player unit u's loss matrix. Each unit
/// fills the field of its kind; the other stays empty.
struct RoundOutcome {
  std::vector<std::vector<ElementId>> winners;
  std::vector<LossMatrix> losses;
  /// Pairs processed this round (cache hits included).
  int64_t issued = 0;
  /// Comparisons actually paid for this round (cache misses; on the
  /// executor backend includes retry re-buys charged by decorators).
  int64_t paid_delta = 0;
  /// Pairs left without evidence this round (executor backend only).
  int64_t unresolved = 0;
  /// Transient (kUnavailable) executor fault absorbed this round, if any.
  /// Non-transient executor errors abort the drive instead.
  Status fault = Status::OK();
};

/// Cross-phase pair-evidence store: one winner map per caller-assigned
/// worker-class id. Several engines (typically one per phase) created over
/// the same cache and class id share evidence — Phase-2 never re-buys a
/// pair Phase-1 already resolved with the *same* worker class. Class ids
/// are caller-assigned integers, not trace classes, so a multilevel
/// cascade can keep every level's evidence separate: naive answers never
/// substitute for expert answers unless the caller deliberately maps both
/// phases to one class (the simulated-expert regime, where both phases buy
/// from the same crowd).
///
/// kUnresolvedWinner entries persist across engines: a pair an earlier
/// phase could not resolve is re-issued (and re-paid) by the next engine
/// that asks for it. Not thread-safe; drive one engine at a time.
class SharedPairCache {
 public:
  /// The winner table for `class_id` (created empty on first use). The
  /// pointer stays valid for the cache's lifetime.
  PairTable* ForClass(int64_t class_id) { return &maps_[class_id]; }

  /// Resolved pairs stored for `class_id` (unresolved sentinels excluded).
  int64_t ResolvedPairs(int64_t class_id) const;

 private:
  std::unordered_map<int64_t, PairTable> maps_;
};

/// Verdict of RoundSource::ReconcileSpeculation: did the in-flight
/// speculative rounds predict the now-known truth?
enum class SpeculationVerdict {
  kConfirmed,
  kMispredicted,
};

/// A round generator: given the answers so far, emit the next set of
/// independent comparisons, or finish. Sources hold the algorithm state
/// (survivor sets, tallies, loss counters) and consume outcomes at the
/// round barrier; they never dispatch, memoize, or budget — that is the
/// engine's job.
class RoundSource {
 public:
  virtual ~RoundSource() = default;

  /// Fills `round` (passed in default-constructed) with the next round.
  /// Returns false when the algorithm is finished, or an error status for
  /// algorithm-level failure (e.g. a round-count safety budget exceeded).
  virtual Result<bool> NextRound(EngineRound* round) = 0;

  /// Consumes the outcome of the round just executed (tallies, survivor
  /// selection, partial-result decisions). Runs single-threaded at the
  /// round barrier, inside the round's trace span when one is open. An
  /// error status aborts the drive.
  virtual Status ConsumeOutcome(const EngineRound& round,
                                const RoundOutcome& outcome) = 0;

  /// The engine declined the next round because it would exceed the
  /// comparison budget; the source records the stop and the drive ends.
  virtual void OnBudgetStop() {}

  /// Memo pruning (DESIGN.md §10, §14). A source that returns true
  /// promises three things:
  ///  (a) no pair repeats within one engine round;
  ///  (b) no later round issues a pair with an element of an earlier
  ///      round that RecurringElements did not name after that round;
  ///  (c) after every ConsumeOutcome, RecurringElements names the
  ///      elements of that round that a later round may pair again.
  /// The engine's private memo then keeps only the bought pairs whose two
  /// ids are both named; answers and counters are unchanged, because no
  /// other pair can be asked again (by this drive: a later drive on the
  /// same engine must not count on a dropped pair). Read once per drive.
  /// The default makes no promise and the memo keeps every bought pair.
  /// Debug builds CHECK (a) and (b).
  virtual bool NamesRecurringElements() const { return false; }

  /// The elements of the round just consumed that a later round may pair
  /// again (see NamesRecurringElements); empty when none can, e.g. because
  /// the source is done. Read right after each ConsumeOutcome; the span
  /// may be invalidated by the next call into the source.
  virtual std::span<const ElementId> RecurringElements() const { return {}; }

  /// Pipelining legality (see DESIGN.md §11): true when the source can
  /// emit its next round *now*, before the outcomes of already-emitted
  /// rounds have been consumed. A source may only say yes when (a) the
  /// next round's pair content is fully determined by outcomes it has
  /// already consumed, (b) the next round shares no pair with any
  /// in-flight round (the engine rejects violations), and (c) its
  /// ConsumeOutcome emits no trace operations — the three conditions that
  /// make the pipelined drive bit-identical to the serial drive. The
  /// filter phase's disjoint groups within one logical round are the
  /// canonical case. Default: never (the pipelined drive then degenerates
  /// to depth 1).
  virtual bool CanPipelineNextRound() const { return false; }

  /// Speculative round declaration (DESIGN.md §15). When the next round's
  /// content depends on an outcome still in flight, a source may offer a
  /// *predicted* variant: CanSpeculateNextRound says one is available, and
  /// SpeculateNextRound fills it in (returning false to decline after
  /// all). The emission must be side-effect-free on the source's own
  /// consumed-truth state — only the speculation bookkeeping (prediction,
  /// outstanding flag) may change, because a misprediction rolls the
  /// emission back via OnSpeculationAborted and the true round is
  /// re-emitted through NextRound. Speculative rounds must not open round
  /// trace spans (the engine CHECKs), and are refused on budget-gated
  /// drives — the budget gate is an emission-time predicate with no
  /// sync-equivalent program point for a round that has not, in the
  /// synchronous schedule, been emitted yet.
  virtual bool CanSpeculateNextRound() const { return false; }
  virtual Result<bool> SpeculateNextRound(EngineRound* round);

  /// Called when every firm outcome the speculation was predicated on has
  /// been consumed: judge the prediction against the now-known truth. Pure
  /// judgment — no state rollback here. On kConfirmed the engine turns the
  /// speculative rounds firm in emission order (their deterministic
  /// effects run now, at the exact point the synchronous drive would have
  /// submitted them); on kMispredicted it cancels them, charges the
  /// would-have-been-bought pairs as speculation_wasted, and calls
  /// OnSpeculationAborted.
  virtual SpeculationVerdict ReconcileSpeculation() {
    return SpeculationVerdict::kMispredicted;
  }

  /// Rolls the source's emission bookkeeping back to consumed truth after
  /// the engine cancelled its outstanding speculative rounds — on a
  /// misprediction or on any drive abort with speculation in flight. The
  /// next NextRound call must emit what the synchronous drive would emit.
  virtual void OnSpeculationAborted() {}

  /// Checkpoint support (core/checkpoint.h): serializes the source's full
  /// algorithm state — survivor sets, tallies, loss counters, phase
  /// machines, any internal RNG stream — so a fresh source constructed
  /// with the same inputs and restored from these bytes continues the run
  /// bit-identically. Called by the engine only at clean round boundaries
  /// (no round in flight, no open round span). The defaults refuse with
  /// kFailedPrecondition, so a source that never opted in cannot silently
  /// resume from scratch.
  virtual Status SaveState(CheckpointWriter* writer) const;
  virtual Status LoadState(CheckpointReader* reader);
};

struct DriveOptions {
  /// >0: decline any round whose worst-case cost (its pair count) would
  /// push paid comparisons past this cap — the FilterOptions::
  /// max_comparisons contract, enforced in exactly one place.
  int64_t max_comparisons = 0;
};

struct DriveResult {
  bool stopped_by_budget = false;
  int64_t rounds_executed = 0;
};

/// The execution core. One engine instance per algorithm run (its paid /
/// issued / step counters and memo cache are scoped to the run).
class RoundEngine {
 public:
  enum class Backend { kSerial, kParallel, kExecutor };

  /// Serial comparator execution, optionally memoized through an
  /// engine-owned pair cache (Appendix A, optimization 1). When
  /// `shared_cache` is non-null the engine memoizes into that cache's
  /// `cache_class` map instead of a private one, so evidence outlives the
  /// engine and is visible to later engines on the same (cache, class).
  /// On every backend a shared cache implies memoization, and an
  /// unmemoized engine buys every pair it is asked, repeats included.
  static std::unique_ptr<RoundEngine> CreateSerial(
      Comparator* comparator, bool memoize,
      SharedPairCache* shared_cache = nullptr, int64_t cache_class = 0);

  /// Parallel comparator execution: `threads` workers, one fork per
  /// RoundUnit, fork seeds drawn from Rng(seed) in unit order. Fails when
  /// the comparator cannot Fork (probed once, up front).
  static Result<std::unique_ptr<RoundEngine>> CreateParallel(
      Comparator* comparator, int64_t threads, uint64_t seed, bool memoize,
      SharedPairCache* shared_cache = nullptr, int64_t cache_class = 0);

  /// Batched execution through a BatchExecutor stack (fault injection,
  /// retry/quorum recovery, platform adapters), memoized as CreateSerial.
  static Result<std::unique_ptr<RoundEngine>> CreateBatched(
      BatchExecutor* executor, bool memoize,
      SharedPairCache* shared_cache = nullptr, int64_t cache_class = 0);

  /// Pipelined batched execution: rounds are submitted through `async`
  /// (core/async_executor.h) and up to `max_in_flight` rounds ride the
  /// simulated crowd latency concurrently whenever the source says the
  /// next round is latency-independent (RoundSource::CanPipelineNextRound).
  /// Outcomes are consumed strictly in submission order, all computation
  /// and accounting happens at submission time, and cache resolution
  /// rejects any pair already in flight — together this makes results,
  /// traces and counters bit-identical to CreateBatched over the same
  /// inner executor (only wall-clock changes). `async` is not owned.
  ///
  /// When the source additionally implements the speculative hooks
  /// (CanSpeculateNextRound et al., DESIGN.md §15) the drive keeps a
  /// prediction window: predicted rounds ride the latency unconfirmed and
  /// are either turned firm (all deterministic effects run at the
  /// sync-equivalent program point, via AsyncBatchExecutor::ConfirmBatch)
  /// or cancelled with the wasted spend charged to speculation_wasted().
  /// Results, traces and non-speculation counters stay bit-identical to
  /// the synchronous drive on both the hit and the miss path.
  static Result<std::unique_ptr<RoundEngine>> CreatePipelined(
      AsyncBatchExecutor* async, int64_t max_in_flight, bool memoize,
      SharedPairCache* shared_cache = nullptr, int64_t cache_class = 0);

  /// Runs the source to completion: budget gate, round execution, cell
  /// recording, outcome delivery. Returns the first error from the source
  /// or a non-transient executor error; transient faults flow to the
  /// source through RoundOutcome instead.
  Result<DriveResult> Drive(RoundSource* source,
                            const DriveOptions& options = DriveOptions());

  Backend backend() const { return backend_; }

  /// True when rounds can come back with unresolved pairs / transient
  /// faults (the executor backend). Sources use this to choose between
  /// the strict comparator-path contract (a non-shrinking round is a
  /// broken comparator) and partial-result semantics.
  bool SupportsPartialEvidence() const {
    return backend_ == Backend::kExecutor;
  }

  /// Comparisons paid since engine creation (comparator count delta or
  /// executor comparisons delta — includes decorator retry charges).
  int64_t paid() const;
  /// Pairs processed since engine creation (cache hits included).
  int64_t issued() const { return issued_; }
  /// Pairs served from the engine's caches since creation.
  int64_t cache_hits() const { return cache_hits_; }
  /// Executor logical steps since engine creation (0 on comparator
  /// backends: the serial/parallel paths predate step accounting).
  int64_t logical_steps() const;

  /// Pipelined engines only (0 on the others): rounds submitted while at
  /// least one earlier round was still in flight (the overlap the pipeline
  /// buys), and the deepest concurrent in-flight depth observed.
  int64_t overlapped_rounds() const { return overlapped_rounds_; }
  int64_t max_in_flight_observed() const { return max_in_flight_observed_; }

  /// Speculation accounting (DESIGN.md §15), all since engine creation.
  /// speculative_rounds = hits + mispredicts once the drive has drained.
  /// `speculation_wasted` is the first-class wasted-spend counter: the
  /// comparisons a mispredicted round would have bought (deduped against
  /// the cache at cancellation time), charged to the executor via
  /// ChargeCancelledSpeculation so paid() = sync_paid + speculation_wasted
  /// — never silently folded into the paid tally.
  int64_t speculative_rounds() const { return speculative_rounds_; }
  int64_t speculation_hits() const { return speculation_hits_; }
  int64_t speculation_mispredicts() const { return speculation_mispredicts_; }
  int64_t speculation_wasted() const { return speculation_wasted_; }

  /// Attaches a CheckpointController (core/checkpoint.h) to this engine's
  /// drives. At every clean round boundary — outcome consumed, no round in
  /// flight, no open round trace span — the controller may snapshot the
  /// whole run (engine counters, pair cache, comparator/executor stack,
  /// source state) and may inject a planned kAborted crash. Before the
  /// next drive's first round, a staged restore (ResumeFrom) is loaded
  /// into the engine, the stack, and the source. Not owned; may be null.
  void set_checkpoint(CheckpointController* controller) {
    checkpoint_ = controller;
  }
  CheckpointController* checkpoint() const { return checkpoint_; }

 private:
  struct PendingRound;

  // Per-unit buffers of the comparator backends, reused across rounds
  // (see unit_scratch_): a pair unit's misses and their answers, and a
  // player unit's memo hits (a pair mask of its LossMatrix's layout) and
  // the ledger seats its players hold (Ledger::Probe). A player unit's
  // pairs are never written out here: the tournament call answers them in
  // place.
  struct UnitScratch {
    std::vector<ComparisonPair> misses;
    std::vector<ElementId> answers;
    std::vector<uint64_t> hits;
    std::vector<uint64_t> seats;
  };

  // The memo a pruning drive keeps for its player units (DESIGN.md §14).
  // Algorithm 2 asks a pair again only when its two players survived one
  // earlier group together, so the memo is those groups' own loss
  // matrices: per committed unit, its matrix, moved whole out of the
  // outcome, and per player the source named after it, a seat (unit,
  // row). A pair is answered iff its players hold seats of one unit whose
  // matrix has its evidence; every such unit holds the same answer,
  // because a later one found the earlier one's before it could buy the
  // pair again. Elements are indexed in the order they are first named,
  // so the ledger's memory follows the elements named, not their ids.
  // Written only at the round barrier; pool threads may Probe it during a
  // round.
  class Ledger {
   public:
    bool empty() const { return units_.empty(); }
    void Clear();

    /// Starts a commit: the elements named after it are `named`.
    void Name(std::span<const ElementId> named);
    /// The index of `id` if the current commit named it, else -1.
    int64_t NamedIndex(ElementId id) const;
    /// Keeps a committed unit: its matrix, and a seat at each of `rows`
    /// for the named element `elements[x]` sitting at rows[x].
    void AddUnit(LossMatrix losses, std::span<const size_t> rows,
                 std::span<const int64_t> elements);

    /// Sets the evidence the ledger holds on pairs of `players` in
    /// `losses` and marks them in the pair mask `hits` (of the matrix's
    /// layout). `seats` is scratch.
    void Probe(std::span<const ElementId> players, LossMatrix* losses,
               std::span<uint64_t> hits, std::vector<uint64_t>* seats) const;

    /// Calls fn(a, b, winner) for every answered pair among the named
    /// players of each unit, unit by unit in commit order, and in row
    /// order within a unit: the pairs the pair table's pruning commit
    /// wrote, in its order.
    template <typename Fn>
    void ForEachAnswered(Fn&& fn) const;

   private:
    struct Unit {
      LossMatrix losses;
      size_t first_seat = 0;
      size_t num_seats = 0;
    };
    struct Seat {
      uint32_t unit = 0;
      uint32_t row = 0;
      uint32_t element = 0;
      int32_t previous = -1;  // The element's seat before this one; -1 none.
    };
    struct Element {
      ElementId id = 0;
      int32_t last_seat = -1;  // -1 none.
      uint64_t named_at = 0;   // The commit that last named it.
    };

    /// The index of `id`, or -1 when it was never named.
    int64_t Find(ElementId id) const;
    /// Makes room for `additional` more elements in the slot table.
    void Reserve(size_t additional);
    /// Enters `id` at `index` into a slot table with room for it.
    void Place(ElementId id, size_t index);

    std::vector<Unit> units_;
    std::vector<Seat> seats_;
    std::vector<Element> elements_;
    // Open-addressed id -> element index: (id + 1) << 32 | index; 0 empty.
    std::vector<uint64_t> slots_;
    int shift_ = 64;
    uint64_t commit_ = 0;
  };

  RoundEngine(Backend backend, Comparator* comparator,
              BatchExecutor* executor, bool memoize, int64_t threads,
              uint64_t seed, SharedPairCache* shared_cache,
              int64_t cache_class);

  Result<RoundOutcome> ExecuteSerial(const EngineRound& round);
  Result<RoundOutcome> ExecuteParallel(const EngineRound& round);

  /// Resolves every pair of `pairs` against the cache with one
  /// PairTable::InsertBatch (absent keys inserted as `absent_value`) and
  /// returns each pair's pinned slot, in pair order. The refs live in
  /// engine scratch until the next call; the value handles they hold stay
  /// valid until the cache grows or clears.
  std::span<const PairSlotRef> PinSlots(std::span<const ComparisonPair> pairs,
                                        ElementId absent_value);

  /// True when a read-only resolve has anything to find in the memo.
  bool MemoReadable() const {
    return memoize_ && (!cache_->empty() || !ledger_.empty());
  }

  /// True when an executor round reserves its misses in the cache and
  /// stores their answers at the read-back: a memoizing drive that does
  /// not prune. Every other executor round resolves read-only.
  bool ReservesMisses() const { return memoize_ && !prune_; }

  /// Read-only resolve of a pair list, shared by every backend that does
  /// not write the memo during a round: a cached answer goes to `winners`,
  /// every other pair is -1 there and appended to `misses`, in pair order.
  /// Never writes the memo, so pool threads may run it on one snapshot.
  /// Without a readable memo every pair is a miss and nothing is probed.
  /// Reads the pair table alone: a round of pair units spills the ledger
  /// first (SpillLedger).
  void ProbeUnit(std::span<const ComparisonPair> pairs,
                 std::vector<ElementId>* winners,
                 std::vector<ComparisonPair>* misses) const;

  /// The same resolve for a player unit (`losses` Reset to its size) over
  /// a readable memo: a memo hit sets its loser's bit in `losses` and its
  /// bit in `hits`, which it sizes; the other pairs are left to the
  /// tournament call. Probes the pair table when it holds anything (a
  /// restored memo, or pair units) and the ledger's seats. Returns the
  /// hits.
  int64_t ProbePlayers(const RoundUnit& unit, LossMatrix* losses,
                       std::vector<uint64_t>* hits,
                       std::vector<uint64_t>* seats) const;

  /// Answers one pair unit on `comparator` (the caller's or a fork) over a
  /// read-only memo: ProbeUnit, then one GenerateVotes call (or one Compare
  /// per pair without a batch interface) over the misses in pair order.
  /// Without a readable memo the votes are drawn straight from the unit's
  /// pairs into `winners`. A pair with an id outside the comparator's
  /// instance, which either path refuses, is an InvalidArgument naming it.
  /// Returns the number of pairs bought.
  Result<int64_t> AnswerUnit(const RoundUnit& unit, Comparator* comparator,
                             UnitScratch* scratch,
                             std::vector<ElementId>* winners) const;

  /// Answers one player unit into `losses`: ProbePlayers over a readable
  /// memo, then one GenerateTournament call for the pairs it did not find
  /// — or, without a batch interface, one Compare per such pair in
  /// row-major order, its bit set directly. A refused pair is an
  /// InvalidArgument naming it, as in AnswerUnit. Returns the number of
  /// pairs bought.
  Result<int64_t> AnswerPlayers(const RoundUnit& unit, Comparator* comparator,
                                UnitScratch* scratch,
                                LossMatrix* losses) const;

  /// The memo's one write path for rounds resolved read-only, run after
  /// the source consumed the outcome and before the checkpoint boundary.
  /// When pruning it keeps what a later round can ask: a player unit with
  /// two or more players in `named` goes to the ledger, its matrix moved
  /// out of `outcome`, and a pair unit's answered pairs of two named ids
  /// to the pair table. Otherwise (the parallel barrier merge, and player
  /// units on a serial memo that keeps every pair) every answered pair
  /// goes to the pair table, with an earlier answer to the same pair
  /// winning.
  void CommitRound(const EngineRound& round, RoundOutcome* outcome,
                   std::span<const ElementId> named);

  /// Inserts round_keys_ with the answers in round_key_winners_ into
  /// `table` in one batch insert; a pair already answered there keeps its
  /// answer.
  void InsertAnswers(PairTable* table);

  /// Writes the ledger's pairs into `table`, as the pruning commit once
  /// wrote them. SpillLedger moves them into the memo's pair table and
  /// clears the ledger, for a reader that resolves pair by pair.
  void WriteLedger(PairTable* table);
  void SpillLedger();

  /// Debug builds: CHECKs the unit-kind rules of RoundUnit on the round
  /// about to run and, on a pruning drive, the source's promises (a) and
  /// (b). A no-op under NDEBUG.
  void CheckRound(const EngineRound& round) const;

  /// Submission half of a round (pending->round set), run in submission
  /// order inside the round's batch span: the whole round on a comparator
  /// backend, SubmitExecutor on an executor. For a speculative round being
  /// confirmed (pending->handle already issued) the same body runs at
  /// confirmation time — the exact program point where the synchronous
  /// drive would have submitted it. `overlapped`: another submitted round
  /// is still in flight.
  Status Submit(PendingRound* pending, bool overlapped);
  /// An executor round's submission, shared by both executor engines: the
  /// overlap guard (when `overlapped`), the cache resolve, accounting, and
  /// the dispatch, which alone differs — TryExecuteBatch and the latency
  /// sleep, or SubmitBatchAsync (ConfirmBatch when confirming). A refused
  /// round leaves no reservation behind.
  Status SubmitExecutor(PendingRound* pending, bool overlapped);
  /// Completion half: on an executor, takes the batch's answers (waiting
  /// out a pipelined round's latency), stores them in the cache, fills the
  /// winners and folds the player units. A no-op on comparator backends.
  Status Complete(PendingRound* pending);
  /// Replaces the -1 reservation of each of `misses` with its answer from
  /// `answers`, or parks it as kUnresolvedWinner when it came back
  /// unanswered or `answers` is null, through one batch insert.
  void StoreAnswers(std::span<const ComparisonPair> misses,
                    const std::vector<BatchTaskResult>* answers);

  /// Serializes one checkpoint: drive progress (`paid_start`, rounds), the
  /// engine's counters/cache/seeder, the comparator or executor stack, and
  /// the source. The memo section holds the pair table and the ledger's
  /// pairs together, sorted, as the pair table alone held them before
  /// the ledger. RestoreCheckpoint is the exact inverse, applied to a
  /// freshly constructed engine+stack+source of the same shape; it loads
  /// the whole memo into the pair table.
  Result<std::string> SerializeCheckpoint(const RoundSource* source,
                                          int64_t paid_start,
                                          const DriveResult& drive);
  Status RestoreCheckpoint(RoundSource* source, const std::string& bytes,
                           int64_t* paid_start, DriveResult* drive);

  const Backend backend_;
  Comparator* const comparator_;  // Comparator backends; else nullptr.
  BatchExecutor* const executor_;  // Executor backend; else nullptr.
  AsyncBatchExecutor* async_ = nullptr;  // Pipelined engine; else nullptr.
  int64_t max_in_flight_ = 1;
  const bool memoize_;

  // Pair-winner cache (open-addressed PairTable, core/pair_table.h).
  // Points at owned_cache_ unless a SharedPairCache class table was
  // supplied at creation. When the drive prunes (below), every
  // non-pipelined backend resolves read-only and CommitRound keeps only
  // what the source named: player units in ledger_, the pairs of pair
  // units here. Otherwise: serial buys each pair of a pair unit once and
  // commits player units after the consume; parallel reads a snapshot
  // during a round and CommitRound merges every pair after it; executor
  // buys each pair once and parks faulted pairs as kUnresolvedWinner.
  // Those write paths go through PinSlots (one grow per round, one batch
  // insert per unit); a pipelined engine never prunes. An unmemoized
  // engine writes nothing.
  PairTable* cache_;
  PairTable owned_cache_;

  // This drive's pruning decision: the source promises
  // (RoundSource::NamesRecurringElements), the memo is on and private, and
  // the engine is not pipelined. Set once at the start of each drive.
  bool prune_ = false;
  // The player units' half of the private memo on a pruning drive. It
  // outlives the drive: a later pruning drive reads it as it is, and any
  // other reader gets it spilled into the pair table first. Cleared by a
  // restore, which loads the whole memo into the table.
  Ledger ledger_;
  // Debug builds: the elements a pruning drive has retired (in an earlier
  // round, not named after it). Not checkpointed; empty under NDEBUG.
  std::unordered_set<ElementId> retired_;

  // Parallel backend: the pool and the persistent fork seeder (one chain
  // across all rounds, so seeded runs replay bit-identically).
  std::unique_ptr<ThreadPool> pool_;
  Rng seeder_;
  const int64_t threads_;

  int64_t paid_base_ = 0;
  int64_t steps_base_ = 0;
  int64_t issued_ = 0;
  int64_t cache_hits_ = 0;
  int64_t overlapped_rounds_ = 0;
  int64_t max_in_flight_observed_ = 0;
  int64_t speculative_rounds_ = 0;
  int64_t speculation_hits_ = 0;
  int64_t speculation_mispredicts_ = 0;
  int64_t speculation_wasted_ = 0;

  // Cross-round reusable scratch (DESIGN.md §15 satellite): the per-unit
  // miss/answer buffers of the comparator dispatch paths, hoisted out of
  // the round loop so they allocate nothing in steady state (an executor
  // round keeps its misses in its PendingRound until the read-back). The
  // parallel backend gets one slot per unit index — each pool task
  // touches only its own slot, so the buffers stay fork-local and
  // race-free; the serial backend, and an executor round's probe, use
  // slot 0. A player unit's slot holds
  // only its hit mask and seat list: the per-pair buffers of the default
  // tournament call live in the comparator, which on the parallel backend
  // is the unit's fork, so they are bounded by the threads running at
  // once.
  std::vector<size_t> serial_miss_at_;
  std::vector<size_t> serial_deferred_;
  std::vector<UnitScratch> unit_scratch_;
  // A player unit's pairs, written out for the executor engines' resolve
  // and their overlap guard (PairsOf).
  std::vector<ComparisonPair> unit_pairs_;
  // PinSlots' and CommitRound's packed keys and slots (one batch insert's
  // worth: a unit, or a round's misses at the read-back), CommitRound's
  // answer per key, and a pruning commit's named players of a unit: their
  // rows and ledger indices. No slot is held past the call that pinned
  // it: a later round's insert may grow the table while this one is in
  // flight.
  std::vector<uint64_t> round_keys_;
  std::vector<PairSlotRef> round_slots_;
  std::vector<ElementId> round_key_winners_;
  std::vector<size_t> commit_rows_;
  std::vector<int64_t> commit_elements_;
  // An executor round's answers to one player unit, folded into its matrix.
  std::vector<ElementId> fold_answers_;

  // Round-boundary snapshot/crash/restore coordinator; null = disabled.
  CheckpointController* checkpoint_ = nullptr;
};

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_ROUND_ENGINE_H_
