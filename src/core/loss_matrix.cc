#include "core/loss_matrix.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "core/pair_table.h"

namespace crowdmax {

int64_t LossMatrix::Losses(size_t i) const {
  int64_t losses = 0;
  for (const uint64_t word : Row(i)) losses += std::popcount(word);
  return losses;
}

// Row i's bits stay in a register while j walks a word and are stored once
// per word: setting them in memory pair by pair chains each store to the
// next pair's load. Bit i of row j goes straight to memory, a different
// word for every j.
void FoldAnswers(std::span<const ElementId> players,
                 std::span<const uint64_t> skip,
                 std::span<const ElementId> answers, LossMatrix* losses) {
  const size_t k = players.size();
  const size_t stride = losses->stride();
  uint64_t* const words = losses->words().data();
  size_t next = 0;
  for (size_t i = 0; i + 1 < k; ++i) {
    const ElementId a = players[i];
    const uint64_t bit_i = uint64_t{1} << (i & 63);
    uint64_t* const column_i = words + (i >> 6);  // row j's word: j * stride
    const auto fold = [&](size_t j, uint64_t* lost) {
      const ElementId winner = answers[next++];
      CROWDMAX_DCHECK(winner == a || winner == players[j] ||
                      winner == kUnresolvedWinner);
      *lost |= uint64_t{winner == players[j]} << (j & 63);
      column_i[j * stride] |= winner == a ? bit_i : 0;
    };
    for (size_t w = (i + 1) >> 6; w < stride; ++w) {
      const size_t begin = std::max(w * 64, i + 1);
      const size_t end = std::min(w * 64 + 64, k);
      const uint64_t skipped = skip.empty() ? 0 : skip[i * stride + w];
      uint64_t lost = 0;
      if (skipped == 0) {
        for (size_t j = begin; j < end; ++j) fold(j, &lost);
      } else {
        // Only the columns in [begin, end) the mask leaves.
        for (uint64_t todo = WordColumns(w, begin, end) & ~skipped; todo != 0;
             todo &= todo - 1) {
          fold(w * 64 + static_cast<size_t>(std::countr_zero(todo)), &lost);
        }
      }
      words[i * stride + w] |= lost;
    }
  }
  CROWDMAX_DCHECK(next == answers.size());
}

}  // namespace crowdmax
