// The outcome of one all-play-all tournament: who lost to whom.
//
// A player unit of the round engine (core/round_engine.h) and a
// VoteBatchComparator's tournament call (core/comparator.h) both answer a
// group of k players into a LossMatrix. A pair mask over a group (memo
// hits, pairs to skip) uses the same layout: bit j of row i stands for the
// pair (players[i], players[j]) with i < j, rows stride() words apart.

#ifndef CROWDMAX_CORE_LOSS_MATRIX_H_
#define CROWDMAX_CORE_LOSS_MATRIX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.h"

namespace crowdmax {

/// The outcome of one player unit of k players: a k x k bit matrix in
/// which bit j of row i is set iff players[i] lost to players[j]. A pair
/// with no evidence (executor faults) sets neither bit, so a player's
/// losses are the popcount of its row and the unit's resolved pairs the
/// popcount of the matrix. Rows are padded to whole 64-bit words.
class LossMatrix {
 public:
  /// Makes this an all-zero k x k matrix.
  void Reset(size_t k) {
    k_ = k;
    stride_ = (k + 63) / 64;
    words_.assign(k * stride_, 0);
  }

  size_t size() const { return k_; }
  /// Words per row.
  size_t stride() const { return stride_; }

  bool Lost(size_t i, size_t j) const {
    return ((words_[i * stride_ + (j >> 6)] >> (j & 63)) & 1) != 0;
  }
  void SetLost(size_t i, size_t j) {
    words_[i * stride_ + (j >> 6)] |= uint64_t{1} << (j & 63);
  }
  std::span<const uint64_t> Row(size_t i) const {
    return std::span<const uint64_t>(words_).subspan(i * stride_, stride_);
  }
  /// Losses of players[i]: the set bits of row i.
  int64_t Losses(size_t i) const;

  /// Every row, back to back (the folds and kernels write through this).
  std::span<uint64_t> words() { return words_; }

 private:
  size_t k_ = 0;
  size_t stride_ = 0;
  std::vector<uint64_t> words_;
};

/// The bits of word w of a row that stand for the columns j with
/// lo <= j < hi.
inline uint64_t WordColumns(size_t w, size_t lo, size_t hi) {
  const size_t base = w * 64;
  const auto below = [base](size_t j) {  // the columns before j
    if (j <= base) return uint64_t{0};
    if (j >= base + 64) return ~uint64_t{0};
    return (uint64_t{1} << (j - base)) - 1;
  };
  return below(hi) & ~below(lo);
}

/// Calls fn(i, j) for every pair i < j of a group of k players whose bit
/// in the pair mask `skip` (rows `stride` words apart; empty = no bit set)
/// is clear, in row-major order. A word with no bit set is walked as a
/// plain column range.
template <typename Fn>
void ForEachUnskippedPair(size_t k, size_t stride,
                          std::span<const uint64_t> skip, Fn&& fn) {
  for (size_t i = 0; i + 1 < k; ++i) {
    for (size_t w = (i + 1) >> 6; w < stride; ++w) {
      const uint64_t skipped = skip.empty() ? 0 : skip[i * stride + w];
      if (skipped == 0) {
        const size_t end = std::min(w * 64 + 64, k);
        for (size_t j = std::max(w * 64, i + 1); j < end; ++j) fn(i, j);
        continue;
      }
      for (uint64_t todo = WordColumns(w, i + 1, k) & ~skipped; todo != 0;
           todo &= todo - 1) {
        fn(i, w * 64 + static_cast<size_t>(std::countr_zero(todo)));
      }
    }
  }
}

/// Folds a group's answers into `losses` (already Reset to the group's
/// size). answers[m] is the winner of the m-th pair, in row-major pair
/// order, that the pair mask `skip` does not mark (empty = none marked).
/// An answer naming neither player (kUnresolvedWinner) sets no bit.
void FoldAnswers(std::span<const ElementId> players,
                 std::span<const uint64_t> skip,
                 std::span<const ElementId> answers, LossMatrix* losses);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_LOSS_MATRIX_H_
