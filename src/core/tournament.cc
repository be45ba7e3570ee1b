#include "core/tournament.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/checkpoint.h"
#include "core/loss_matrix.h"
#include "core/round_engine.h"

namespace crowdmax {

namespace {

constexpr uint32_t kTournamentTag = CheckpointTag("TRNY");

// A tournament is the degenerate round generator: one round of one player
// unit. Comparisons are attributed to a cell by the caller (the
// phase/round that ran the tournament), never here, so an all-play-all
// inside a recorded round is not double counted.
class TournamentRoundSource : public RoundSource {
 public:
  TournamentRoundSource(const std::vector<ElementId>& elements,
                        int64_t chunk_pairs)
      : elements_(elements), chunk_pairs_(chunk_pairs) {
    const int64_t k = static_cast<int64_t>(elements_.size());
    total_pairs_ = k * (k > 0 ? k - 1 : 0) / 2;
    if (chunked()) run_.wins.assign(elements_.size(), 0);
  }

  Result<bool> NextRound(EngineRound* round) override {
    if (done_) return false;
    round->span = "all_play_all";
    RoundUnit& unit = round->units.emplace_back();
    if (!chunked()) {
      done_ = true;
      unit.players = elements_;
      return true;
    }
    // Chunked shape: a pair unit of the next <= chunk_pairs_ pairs, in the
    // row-major order the player unit stands for.
    const size_t k = elements_.size();
    unit.pairs.reserve(static_cast<size_t>(
        std::min(chunk_pairs_, total_pairs_ - next_emit_pair_)));
    int64_t emitted = 0;
    while (emitted < chunk_pairs_ && next_emit_pair_ + emitted < total_pairs_) {
      unit.pairs.push_back({elements_[ei_], elements_[ej_]});
      ++emitted;
      if (++ej_ >= k) {
        ++ei_;
        ej_ = ei_ + 1;
      }
    }
    next_emit_pair_ += emitted;
    if (next_emit_pair_ >= total_pairs_) done_ = true;
    return true;
  }

  // Chunks never share a pair (each unordered pair is emitted exactly
  // once), so the whole remainder of the tournament may trail the chunk
  // in flight.
  bool CanPipelineNextRound() const override {
    return chunked() && next_emit_pair_ > 0 && next_emit_pair_ < total_pairs_;
  }

  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    if (chunked()) {
      run_.comparisons += outcome.issued;
      const size_t k = elements_.size();
      for (const ElementId winner : outcome.winners[0]) {
        if (winner == kUnresolvedWinner) {
          ++run_.unresolved;
        } else {
          ++run_.wins[winner == elements_[ci_] ? ci_ : cj_];
        }
        ++next_consume_pair_;
        if (++cj_ >= k) {
          ++ci_;
          cj_ = ci_ + 1;
        }
      }
      if (run_.fault.ok() && !outcome.fault.ok()) run_.fault = outcome.fault;
      return Status::OK();
    }
    run_ = TallyTournament(outcome.losses[0]);
    run_.fault = outcome.fault;
    return Status::OK();
  }

  TournamentResult Finish() { return std::move(run_); }

  // Single-round source: the only interior boundary is "tournament already
  // consumed", so the state is the tally plus the done flag. The chunked
  // shape adds interior boundaries between chunks; the pair cursors make
  // those resumable.
  Status SaveState(CheckpointWriter* writer) const override {
    writer->WriteTag(kTournamentTag);
    writer->WriteIdVector(run_.wins);
    writer->WriteI64(run_.comparisons);
    writer->WriteI64(run_.unresolved);
    writer->WriteStatus(run_.fault);
    writer->WriteBool(done_);
    writer->WriteI64(static_cast<int64_t>(ei_));
    writer->WriteI64(static_cast<int64_t>(ej_));
    writer->WriteI64(static_cast<int64_t>(ci_));
    writer->WriteI64(static_cast<int64_t>(cj_));
    writer->WriteI64(next_emit_pair_);
    writer->WriteI64(next_consume_pair_);
    return Status::OK();
  }

  Status LoadState(CheckpointReader* reader) override {
    reader->ExpectTag(kTournamentTag);
    reader->ReadIdVector(&run_.wins);
    run_.comparisons = reader->ReadI64();
    run_.unresolved = reader->ReadI64();
    run_.fault = reader->ReadStatus();
    done_ = reader->ReadBool();
    ei_ = static_cast<size_t>(reader->ReadI64());
    ej_ = static_cast<size_t>(reader->ReadI64());
    ci_ = static_cast<size_t>(reader->ReadI64());
    cj_ = static_cast<size_t>(reader->ReadI64());
    next_emit_pair_ = reader->ReadI64();
    next_consume_pair_ = reader->ReadI64();
    return reader->status();
  }

 private:
  bool chunked() const { return chunk_pairs_ > 0 && total_pairs_ > 0; }

  const std::vector<ElementId>& elements_;
  const int64_t chunk_pairs_;
  int64_t total_pairs_ = 0;
  TournamentResult run_;
  bool done_ = false;
  // Pair cursors for the chunked shape: (ei_, ej_) is the next pair to
  // emit, (ci_, cj_) the next to tally; the flat counters gate
  // CanPipelineNextRound and termination.
  size_t ei_ = 0;
  size_t ej_ = 1;
  size_t ci_ = 0;
  size_t cj_ = 1;
  int64_t next_emit_pair_ = 0;
  int64_t next_consume_pair_ = 0;
};

}  // namespace

TournamentResult TallyTournament(const LossMatrix& losses) {
  const size_t k = losses.size();
  TournamentResult result;
  result.wins.assign(k, 0);
  result.comparisons = static_cast<int64_t>(k * (k > 0 ? k - 1 : 0) / 2);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (losses.Lost(i, j)) {
        ++result.wins[j];
      } else if (losses.Lost(j, i)) {
        ++result.wins[i];
      } else {
        ++result.unresolved;
      }
    }
  }
  return result;
}

Result<TournamentResult> RunTournamentOnEngine(
    const std::vector<ElementId>& elements, RoundEngine* engine,
    const TournamentEngineOptions& options) {
  CROWDMAX_CHECK(engine != nullptr);
  if (options.chunk_pairs < 0) {
    return Status::InvalidArgument("chunk_pairs must be >= 0");
  }
  TournamentRoundSource source(elements, options.chunk_pairs);
  Result<DriveResult> drive = engine->Drive(&source);
  if (!drive.ok()) return drive.status();
  return source.Finish();
}

Result<TournamentResult> AllPlayAll(const std::vector<ElementId>& elements,
                                    Comparator* comparator) {
  CROWDMAX_CHECK(comparator != nullptr);
  const std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(comparator, /*memoize=*/false);
  return RunTournamentOnEngine(elements, engine.get());
}

size_t IndexOfMostWins(const TournamentResult& result) {
  CROWDMAX_CHECK(!result.wins.empty());
  size_t best = 0;
  for (size_t i = 1; i < result.wins.size(); ++i) {
    if (result.wins[i] > result.wins[best]) best = i;
  }
  return best;
}

size_t IndexOfFewestWins(const TournamentResult& result) {
  CROWDMAX_CHECK(!result.wins.empty());
  size_t worst = 0;
  for (size_t i = 1; i < result.wins.size(); ++i) {
    if (result.wins[i] < result.wins[worst]) worst = i;
  }
  return worst;
}

std::vector<ElementId> OrderByWins(const std::vector<ElementId>& elements,
                                   const TournamentResult& result) {
  CROWDMAX_CHECK(result.wins.size() == elements.size());
  std::vector<size_t> order(elements.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result.wins[a] > result.wins[b];
  });
  std::vector<ElementId> out;
  out.reserve(elements.size());
  for (size_t i : order) out.push_back(elements[i]);
  return out;
}

}  // namespace crowdmax
