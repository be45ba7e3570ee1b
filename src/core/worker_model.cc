#include "core/worker_model.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/checkpoint.h"
#include "core/loss_matrix.h"
#include "core/pair_key.h"

// Same compile-time guard as common/rng.cc: AVX2 clones of the vote
// precompute loops are compiled whenever the build enables CROWDMAX_SIMD on
// an x86-64 GNU-compatible toolchain; whether they run is decided per call
// from RngBulkSimdActive(), so one switch (build option, CPU support,
// CROWDMAX_NO_SIMD, SetRngBulkSimd) governs every SIMD path in the binary.
#if defined(CROWDMAX_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define CROWDMAX_VOTE_AVX2 1
#endif

namespace crowdmax {

namespace {

constexpr uint32_t kRngTag = CheckpointTag("RNG ");
constexpr uint32_t kStickyTag = CheckpointTag("STKY");

// Returns the element with the larger value; lower id on exact ties.
ElementId TrueWinner(const Instance& instance, ElementId a, ElementId b) {
  if (instance.value(a) > instance.value(b)) return a;
  if (instance.value(b) > instance.value(a)) return b;
  return std::min(a, b);
}

ElementId Other(ElementId winner, ElementId a, ElementId b) {
  return winner == a ? b : a;
}

// Length of the longest prefix of `pairs` whose ids are all inside the
// instance. GenerateVotes answers exactly this prefix: the first invalid
// pair (negative sentinel or out of range) is refused, not answered, not
// charged.
size_t ValidPrefix(const Instance& instance,
                   std::span<const ComparisonPair> pairs) {
  size_t n = 0;
  for (; n < pairs.size(); ++n) {
    if (!instance.Contains(pairs[n].first) ||
        !instance.Contains(pairs[n].second)) {
      break;
    }
  }
  return n;
}

// ---- Bulk draw resolution (DESIGN.md §16) --------------------------------

// Clamped 53-bit threshold: the Rng::BernoulliThreshold mapping extended
// to the draw-free edges. 0 encodes "never true, no draw" (p <= 0, and
// NaN — but models validate their probabilities), 2^53 encodes "always
// true, no draw" (p >= 1); everything in between is an open draw.
constexpr uint64_t kAlwaysThreshold = uint64_t{1} << 53;
constexpr uint64_t kHalfThreshold = uint64_t{1} << 52;  // BernoulliThreshold(.5)

uint64_t ClampedThreshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kAlwaysThreshold;
  return Rng::BernoulliThreshold(p);
}

// Whether a clamped threshold consumes a draw (p strictly inside (0, 1)).
bool ThresholdDraws(uint64_t threshold) {
  return threshold != 0 && threshold != kAlwaysThreshold;
}

// Resolves one row against a pre-generated raw draw stream: open
// thresholds consume the next raw word, edge thresholds answer without
// consuming — the per-call NextBernoulli contract over a FillRaw buffer.
bool ConsumeDraw(const uint64_t* raw, uint64_t threshold, size_t* cursor) {
  if (!ThresholdDraws(threshold)) return threshold != 0;
  return (raw[(*cursor)++] >> 11) < threshold;
}

// Hot loops below hoist the scratch arrays into __restrict locals: left
// as std::vector subscripts, GCC must assume every store may alias the
// vectors' internal pointers and reloads them per row, which blocks cmov
// conversion and costs ~7x on the random-data selects (measured; see
// DESIGN.md §16).
void SelectVotes(const VoteBatchScratch& s, size_t n,
                 std::span<ElementId> out) {
  const uint8_t* __restrict bits = s.bits.data();
  const ElementId* __restrict on_true = s.on_true.data();
  const ElementId* __restrict on_false = s.on_false.data();
  ElementId* o = out.data();
  for (size_t i = 0; i < n; ++i) {
    o[i] = bits[i] ? on_true[i] : on_false[i];
  }
}

// ---- Threshold fresh-coin precompute kernel ------------------------------
//
// The per-row classify/select loop of ThresholdComparator's fresh-coin bulk
// path, factored out so an AVX2 clone can be compiled next to the baseline
// build. The library targets generic x86-64, where GCC cannot vectorize
// this loop (value gathers need vgatherqpd); inside a target("avx2")
// function the very same body auto-vectorizes and runs ~4x faster
// (measured 10.4 ns -> 2.4 ns per row). Every operation involved —
// double compare, subtract, fabs, integer select — is IEEE-exact and
// lane-independent, so the clones are bit-identical by construction; the
// in-bench CHECKs and VoteBatchEquivalenceTest pin this at runtime.
struct PrecomputeSummary {
  unsigned saw_above;
  unsigned saw_below;
};

__attribute__((always_inline)) inline PrecomputeSummary
ThresholdFreshPrecomputeBody(const ComparisonPair* p, size_t n,
                             const Instance& inst, double delta,
                             uint64_t eps_thr, uint64_t coin_thr,
                             uint64_t* __restrict threshold,
                             ElementId* __restrict on_true,
                             ElementId* __restrict on_false) {
  unsigned saw_above = 0;
  unsigned saw_below = 0;
  for (size_t i = 0; i < n; ++i) {
    const ElementId a = p[i].first;
    const ElementId b = p[i].second;
    const double va = inst.value(a);
    const double vb = inst.value(b);
    // Exact FP operations of TrueWinner + Instance::Distance, so
    // classification cannot diverge from the per-call path.
    const bool a_wins = (va > vb) | ((va == vb) & (a < b));
    const bool above = std::fabs(va - vb) > delta;
    // sel folds correct/other into one pair of selects: above rows put
    // the loser on the draw's true side, below rows the winner.
    const bool sel = a_wins != above;
    threshold[i] = above ? eps_thr : coin_thr;
    on_true[i] = sel ? a : b;
    on_false[i] = sel ? b : a;
    saw_above |= static_cast<unsigned>(above);
    saw_below |= static_cast<unsigned>(!above);
  }
  return {saw_above, saw_below};
}

PrecomputeSummary ThresholdFreshPrecomputeScalar(
    const ComparisonPair* p, size_t n, const Instance& inst, double delta,
    uint64_t eps_thr, uint64_t coin_thr, uint64_t* threshold,
    ElementId* on_true, ElementId* on_false) {
  return ThresholdFreshPrecomputeBody(p, n, inst, delta, eps_thr, coin_thr,
                                      threshold, on_true, on_false);
}

#if CROWDMAX_VOTE_AVX2
// optimize("O3") matters: at -O2 the vectorizer's very-cheap cost model
// refuses loops with a runtime trip count (an epilogue would be needed),
// so the clone would silently compile scalar. O3's full cost model
// vectorizes it (verified by the vgather in the disassembly and the
// bench delta).
__attribute__((target("avx2"), optimize("O3"))) PrecomputeSummary
ThresholdFreshPrecomputeAvx2(
    const ComparisonPair* p, size_t n, const Instance& inst, double delta,
    uint64_t eps_thr, uint64_t coin_thr, uint64_t* threshold,
    ElementId* on_true, ElementId* on_false) {
  return ThresholdFreshPrecomputeBody(p, n, inst, delta, eps_thr, coin_thr,
                                      threshold, on_true, on_false);
}
#endif

PrecomputeSummary ThresholdFreshPrecompute(const ComparisonPair* p, size_t n,
                                           const Instance& inst, double delta,
                                           uint64_t eps_thr, uint64_t coin_thr,
                                           uint64_t* threshold,
                                           ElementId* on_true,
                                           ElementId* on_false) {
#if CROWDMAX_VOTE_AVX2
  if (RngBulkSimdActive()) {
    return ThresholdFreshPrecomputeAvx2(p, n, inst, delta, eps_thr, coin_thr,
                                        threshold, on_true, on_false);
  }
#endif
  return ThresholdFreshPrecomputeScalar(p, n, inst, delta, eps_thr, coin_thr,
                                        threshold, on_true, on_false);
}

// ---- Threshold tournament word kernel -----------------------------------
//
// The value compares of ThresholdComparator's tournament kernel: for every
// row i of a group and every column j, the bits of |v_i - v_j| > delta and
// v_i > v_j, 64 columns to a word. `values` holds the group's k values
// padded with zeros to stride * 64; the padding columns' bits are
// meaningless and masked by the caller. The same clone discipline as the
// precompute kernel above: inside target("avx2") at O3 the 64-column loop
// compiles to 4-wide vcmppd with each lane's bit masked and OR-ed in, and
// every operation is IEEE-exact and lane-independent, so the two are bit-
// identical. One dispatch per group.
__attribute__((always_inline)) inline void TournamentWordsBody(
    const double* __restrict values, size_t k, size_t stride, double delta,
    uint64_t* __restrict above, uint64_t* __restrict greater) {
  for (size_t i = 0; i < k; ++i) {
    const double vi = values[i];
    for (size_t w = 0; w < stride; ++w) {
      const double* v = values + w * 64;
      uint64_t a = 0;
      uint64_t g = 0;
      for (size_t t = 0; t < 64; ++t) {
        // The exact expressions of ThresholdFreshPrecomputeBody.
        a |= uint64_t{std::fabs(vi - v[t]) > delta} << t;
        g |= uint64_t{vi > v[t]} << t;
      }
      above[i * stride + w] = a;
      greater[i * stride + w] = g;
    }
  }
}

void TournamentWordsScalar(const double* values, size_t k, size_t stride,
                           double delta, uint64_t* above, uint64_t* greater) {
  TournamentWordsBody(values, k, stride, delta, above, greater);
}

#if CROWDMAX_VOTE_AVX2
__attribute__((target("avx2"), optimize("O3"))) void TournamentWordsAvx2(
    const double* values, size_t k, size_t stride, double delta,
    uint64_t* above, uint64_t* greater) {
  TournamentWordsBody(values, k, stride, delta, above, greater);
}
#endif

void TournamentWords(const double* values, size_t k, size_t stride,
                     double delta, uint64_t* above, uint64_t* greater) {
#if CROWDMAX_VOTE_AVX2
  if (RngBulkSimdActive()) {
    TournamentWordsAvx2(values, k, stride, delta, above, greater);
    return;
  }
#endif
  TournamentWordsScalar(values, k, stride, delta, above, greater);
}

// Resolves n independent (sticky-free) rows with the bulk kernels, driven
// entirely by scratch.threshold. When every row draws, one
// FillBernoulliThresholds call resolves the batch; otherwise raw words are
// generated for exactly the open rows and walked in order, so closed rows
// skip the stream like per-call NextBernoulli. (The one divergence from
// NextBernoulli: ClampedThreshold folds NaN to "never true, no draw" where
// NextBernoulli draws and fails — unreachable here because every model
// CHECK-validates its probabilities.) Bit-identity with the per-call path
// is pinned by rng_test and VoteBatchEquivalenceTest.
void ResolveIndependentBulk(Rng& rng, VoteBatchScratch& s, size_t n,
                            bool all_open, std::span<ElementId> out) {
  if (all_open) {
    rng.FillBernoulliThresholds({s.threshold.data(), n}, {s.bits.data(), n});
    SelectVotes(s, n, out);
    return;
  }
  const uint64_t* __restrict threshold = s.threshold.data();
  size_t draws = 0;
  for (size_t i = 0; i < n; ++i) {
    draws += ThresholdDraws(threshold[i]) ? 1 : 0;
  }
  s.raw.resize(draws);
  rng.FillRaw({s.raw.data(), draws});
  const uint64_t* __restrict raw = s.raw.data();
  const ElementId* __restrict on_true = s.on_true.data();
  const ElementId* __restrict on_false = s.on_false.data();
  ElementId* o = out.data();
  size_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    o[i] = ConsumeDraw(raw, threshold[i], &cursor) ? on_true[i] : on_false[i];
  }
  CROWDMAX_DCHECK(cursor == draws);
}

}  // namespace

ThresholdComparator::ThresholdComparator(const Instance* instance,
                                         const Options& options,
                                         uint64_t seed)
    : instance_(instance), options_(options), rng_(seed) {
  CROWDMAX_CHECK(instance != nullptr);
  CROWDMAX_CHECK(options.model.Valid());
  CROWDMAX_CHECK(options.below_threshold_correct_prob >= 0.0 &&
                 options.below_threshold_correct_prob <= 1.0);
  epsilon_threshold_ = ClampedThreshold(options.model.epsilon);
  coin_threshold_ = ClampedThreshold(options.below_threshold_correct_prob);
}

ThresholdComparator::ThresholdComparator(const Instance* instance,
                                         ThresholdModel model, uint64_t seed)
    : ThresholdComparator(instance, Options{model, TiePolicy::kFreshCoin, 0.5},
                          seed) {}

ElementId ThresholdComparator::DoCompare(ElementId a, ElementId b) {
  CROWDMAX_DCHECK(instance_->Contains(a) && instance_->Contains(b));
  const ElementId correct = TrueWinner(*instance_, a, b);
  if (instance_->Distance(a, b) > options_.model.delta) {
    // Discriminable pair: err with residual probability epsilon.
    if (rng_.NextBernoulli(options_.model.epsilon)) {
      return Other(correct, a, b);
    }
    return correct;
  }
  switch (options_.tie_policy) {
    case TiePolicy::kFreshCoin:
      return rng_.NextBernoulli(options_.below_threshold_correct_prob)
                 ? correct
                 : Other(correct, a, b);
    case TiePolicy::kPersistentArbitrary: {
      const uint64_t key = PackPairKey(a, b);
      PairValuePtr sticky = sticky_answers_.Find(key);
      if (sticky == nullptr) {
        const ElementId pick = rng_.NextBernoulli(0.5) ? a : b;
        sticky = sticky_answers_.Insert(key, pick);
      }
      return *sticky;
    }
  }
  return correct;
}

int64_t ThresholdComparator::GenerateVotes(
    std::span<const ComparisonPair> pairs, std::span<ElementId> out) {
  CROWDMAX_CHECK(out.size() >= pairs.size());
  const size_t n = ValidPrefix(*instance_, pairs);
  scratch_.Resize(n);
  const double delta = options_.model.delta;
  const uint64_t eps_thr = epsilon_threshold_;
  const bool eps_draws = ThresholdDraws(eps_thr);
  if (options_.tie_policy == TiePolicy::kFreshCoin) {
    // Fresh-coin precompute: two regimes, each with a constant per-class
    // threshold, so the kernel is inline value loads plus branchless
    // selects — no sticky[] traffic and no out-of-line calls. The
    // kernel is runtime-dispatched scalar/AVX2 (bit-identical; see the
    // definitions above).
    const uint64_t coin_thr = coin_threshold_;
    const PrecomputeSummary summary = ThresholdFreshPrecompute(
        pairs.data(), n, *instance_, delta, eps_thr, coin_thr,
        scratch_.threshold.data(), scratch_.on_true.data(),
        scratch_.on_false.data());
    const bool all_open = (!summary.saw_above || eps_draws) &&
                          (!summary.saw_below || ThresholdDraws(coin_thr));
    ResolveIndependentBulk(rng_, scratch_, n, all_open, out);
    AddComparisons(static_cast<int64_t>(n));
    return static_cast<int64_t>(n);
  }
  // kPersistentArbitrary. Pass 1 (no RNG): classify each row, touch the
  // sticky table exactly once (Reserve pins the arena, so the Insert's
  // value handle stays valid for the whole batch), and count the exact
  // draws the per-call path would make. The sticky pick uses *argument*
  // order (pick = coin ? a : b), so stash a/b, not correct/other.
  scratch_.slots.resize(n);
  sticky_answers_.Reserve(static_cast<int64_t>(n));
  const ComparisonPair* p = pairs.data();
  uint64_t* __restrict threshold = scratch_.threshold.data();
  ElementId* __restrict on_true = scratch_.on_true.data();
  ElementId* __restrict on_false = scratch_.on_false.data();
  uint8_t* __restrict sticky = scratch_.sticky.data();
  PairValuePtr* __restrict slots = scratch_.slots.data();
  bool any_sticky = false;
  size_t draws = 0;
  for (size_t i = 0; i < n; ++i) {
    const ElementId a = p[i].first;
    const ElementId b = p[i].second;
    const double va = instance_->value(a);
    const double vb = instance_->value(b);
    if (std::fabs(va - vb) > delta) {
      const bool a_wins = (va > vb) | ((va == vb) & (a < b));
      threshold[i] = eps_thr;
      on_true[i] = a_wins ? b : a;
      on_false[i] = a_wins ? a : b;
      sticky[i] = 0;
      draws += eps_draws ? 1 : 0;
    } else {
      on_true[i] = a;
      on_false[i] = b;
      bool fresh = false;
      // Placeholder value; pass 2 draws the real pick through the slot.
      slots[i] = sticky_answers_.Insert(PackPairKey(a, b), a, &fresh);
      sticky[i] = fresh ? 1 : 2;
      draws += fresh ? 1 : 0;  // The 0.5 coin is always an open draw.
      any_sticky = true;
    }
  }
  if (!any_sticky) {
    // Every row was above-threshold, so openness is the one class flag.
    ResolveIndependentBulk(rng_, scratch_, n, eps_draws, out);
  } else {
    // Pass 2: bulk-generate the exact draw count, then walk the rows in
    // order consuming draws — the same draw-per-row schedule as per-call.
    // Sticky rows resolve through the pass-1 value handles: no re-probe.
    scratch_.raw.resize(draws);
    rng_.FillRaw({scratch_.raw.data(), draws});
    const uint64_t* __restrict raw = scratch_.raw.data();
    size_t cursor = 0;
    for (size_t i = 0; i < n; ++i) {
      if (sticky[i] == 0) {
        out[i] = ConsumeDraw(raw, threshold[i], &cursor) ? on_true[i]
                                                         : on_false[i];
      } else if (sticky[i] == 1) {
        const ElementId pick =
            ConsumeDraw(raw, kHalfThreshold, &cursor) ? on_true[i]
                                                      : on_false[i];
        *slots[i] = pick;
        out[i] = pick;
      } else {
        out[i] = *slots[i];
      }
    }
    CROWDMAX_DCHECK(cursor == draws);
  }
  AddComparisons(static_cast<int64_t>(n));
  return static_cast<int64_t>(n);
}

// For a pair (players[i], players[j]), GenerateVotes' fresh-coin path
// draws r against the class threshold (eps_thr above delta, coin_thr at or
// below) and answers on_true = the loser above, the winner below, so
// players[i] lost iff r ^ above ^ i_wins. A class whose threshold does not
// draw has a constant r, so those pairs are decided by the row's words
// alone, and row i's word is written for every column at once, over both
// triangles: |v_i - v_j| is exactly |v_j - v_i| (a - b == -(b - a) in
// IEEE round-to-nearest), and with no NaN and distinct ids the winner rule
// is a total order, so i_wins of the lower triangle is the complement of
// the answer the row-major pair (players[j], players[i]) computes. The
// pairs whose class draws are counted, drawn in one FillRaw call, and
// consumed in row-major order over i < j, one bit each.
int64_t ThresholdComparator::GenerateTournament(
    std::span<const ElementId> players, std::span<const uint64_t> skip,
    LossMatrix* losses) {
  if (options_.tie_policy != TiePolicy::kFreshCoin) {
    return VoteBatchComparator::GenerateTournament(players, skip, losses);
  }
  const size_t k = players.size();
  const size_t stride = losses->stride();
  TournamentScratch& s = tournament_;
  s.values.assign(stride * 64, 0.0);
  for (size_t i = 0; i < k; ++i) {
    // A player outside the instance is refused at its first pair, and a
    // NaN breaks the total order: the written-out path answers both
    // exactly as GenerateVotes does.
    if (!instance_->Contains(players[i]) ||
        std::isnan(instance_->value(players[i]))) {
      return VoteBatchComparator::GenerateTournament(players, skip, losses);
    }
    s.values[i] = instance_->value(players[i]);
  }
  s.above.resize(k * stride);
  s.greater.resize(k * stride);
  TournamentWords(s.values.data(), k, stride, options_.model.delta,
                  s.above.data(), s.greater.data());
  // The skipped pairs over both triangles: each upper bit, mirrored.
  s.skipped.assign(k * stride, 0);
  if (!skip.empty()) {
    for (size_t i = 0; i + 1 < k; ++i) {
      for (size_t w = (i + 1) >> 6; w < stride; ++w) {
        const uint64_t upper = skip[i * stride + w] & WordColumns(w, i + 1, k);
        s.skipped[i * stride + w] |= upper;
        for (uint64_t t = upper; t != 0; t &= t - 1) {
          const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(t));
          s.skipped[j * stride + (i >> 6)] |= uint64_t{1} << (i & 63);
        }
      }
    }
  }
  // Per class: whether it draws, and the constant outcome of one that
  // does not (a never-true threshold is r = 0, an always-true one r = 1).
  const uint64_t eps_thr = epsilon_threshold_;
  const uint64_t coin_thr = coin_threshold_;
  const uint64_t above_draws = ThresholdDraws(eps_thr) ? ~uint64_t{0} : 0;
  const uint64_t below_draws = ThresholdDraws(coin_thr) ? ~uint64_t{0} : 0;
  const uint64_t above_r = eps_thr == kAlwaysThreshold ? ~uint64_t{0} : 0;
  const uint64_t below_r = coin_thr == kAlwaysThreshold ? ~uint64_t{0} : 0;
  s.drawn.resize(k * stride);
  uint64_t* const words = losses->words().data();
  int64_t answered = 0;
  size_t draws = 0;
  for (size_t i = 0; i < k; ++i) {
    const ElementId id = players[i];
    const double value = s.values[i];
    for (size_t w = 0; w < stride; ++w) {
      const size_t at = i * stride + w;
      uint64_t columns = WordColumns(w, 0, k);
      if ((i >> 6) == w) columns &= ~(uint64_t{1} << (i & 63));
      const uint64_t above = s.above[at];
      // The lower id wins a tie. Equal values are never above delta, so
      // only the columns at or below delta that v_i does not exceed can
      // tie.
      uint64_t wins = s.greater[at];
      for (uint64_t t = ~above & ~wins & columns; t != 0; t &= t - 1) {
        const int bit = std::countr_zero(t);
        const size_t j = w * 64 + static_cast<size_t>(bit);
        if (value == s.values[j] && id < players[j]) {
          wins |= uint64_t{1} << bit;
        }
      }
      const uint64_t open = columns & ~s.skipped[at];
      const uint64_t draw = (above & above_draws) | (~above & below_draws);
      const uint64_t r = (above & above_r) | (~above & below_r);
      words[at] |= (r ^ above ^ wins) & ~draw & open;
      const uint64_t upper = open & WordColumns(w, i + 1, k);
      answered += std::popcount(upper);
      s.greater[at] = wins;
      s.drawn[at] = draw & upper;
      draws += static_cast<size_t>(std::popcount(draw & upper));
    }
  }
  if (draws > 0) {
    scratch_.raw.resize(draws);
    rng_.FillRaw({scratch_.raw.data(), draws});
    const uint64_t* __restrict raw = scratch_.raw.data();
    size_t cursor = 0;
    for (size_t i = 0; i < k; ++i) {
      // Who lost is a coin flip to the branch predictor, so both bits are
      // written unconditionally, FoldAnswers-style: row i's in a register,
      // one store per word; bit i of row j straight to memory.
      const size_t shift_i = i & 63;
      uint64_t* const column_i = words + (i >> 6);  // row j's word: j * stride
      for (size_t w = (i + 1) >> 6; w < stride; ++w) {
        const size_t at = i * stride + w;
        const uint64_t above = s.above[at];
        const uint64_t flip = above ^ s.greater[at];
        uint64_t lost_row = 0;
        for (uint64_t t = s.drawn[at]; t != 0; t &= t - 1) {
          const int bit = std::countr_zero(t);
          const uint64_t threshold = (above >> bit) & 1 ? eps_thr : coin_thr;
          const uint64_t lost =
              uint64_t{(raw[cursor++] >> 11) < threshold} ^ ((flip >> bit) & 1);
          lost_row |= lost << bit;
          column_i[(w * 64 + static_cast<size_t>(bit)) * stride] |=
              (lost ^ 1) << shift_i;
        }
        words[at] |= lost_row;
      }
    }
    CROWDMAX_DCHECK(cursor == draws);
  }
  AddComparisons(answered);
  return answered;
}


std::unique_ptr<Comparator> ThresholdComparator::Fork(uint64_t seed) const {
  return std::make_unique<ThresholdComparator>(instance_, options_, seed);
}

Status ThresholdComparator::SaveState(CheckpointWriter* writer) const {
  Status counter = SaveCounterState(writer);
  if (!counter.ok()) return counter;
  writer->WriteTag(kRngTag);
  writer->WriteRngState(rng_.state());
  writer->WriteTag(kStickyTag);
  SavePairTable(writer, sticky_answers_);
  return Status::OK();
}

Status ThresholdComparator::LoadState(CheckpointReader* reader) {
  Status counter = LoadCounterState(reader);
  if (!counter.ok()) return counter;
  reader->ExpectTag(kRngTag);
  rng_.set_state(reader->ReadRngState());
  reader->ExpectTag(kStickyTag);
  LoadPairTable(reader, &sticky_answers_);
  return reader->status();
}

RelativeErrorComparator::RelativeErrorComparator(const Instance* instance,
                                                 const Options& options,
                                                 uint64_t seed)
    : instance_(instance), options_(options), rng_(seed) {
  CROWDMAX_CHECK(instance != nullptr);
  CROWDMAX_CHECK(options.base_error >= 0.0 && options.base_error <= 1.0);
  CROWDMAX_CHECK(options.max_error >= 0.0 && options.max_error <= 1.0);
  CROWDMAX_CHECK(options.decay >= 0.0);
}

ElementId RelativeErrorComparator::DoCompare(ElementId a, ElementId b) {
  CROWDMAX_DCHECK(instance_->Contains(a) && instance_->Contains(b));
  const ElementId correct = TrueWinner(*instance_, a, b);
  const double rel = instance_->RelativeDifference(a, b);
  const double p_error = std::min(
      options_.max_error, options_.base_error * std::exp(-options_.decay * rel));
  if (rng_.NextBernoulli(p_error)) return Other(correct, a, b);
  return correct;
}

int64_t RelativeErrorComparator::GenerateVotes(
    std::span<const ComparisonPair> pairs, std::span<ElementId> out) {
  CROWDMAX_CHECK(out.size() >= pairs.size());
  const size_t n = ValidPrefix(*instance_, pairs);
  scratch_.Resize(n);
  const double base_error = options_.base_error;
  const double decay = options_.decay;
  const double max_error = options_.max_error;
  const ComparisonPair* p = pairs.data();
  uint64_t* __restrict threshold = scratch_.threshold.data();
  ElementId* __restrict on_true = scratch_.on_true.data();
  ElementId* __restrict on_false = scratch_.on_false.data();
  unsigned open_all = 1;
  for (size_t i = 0; i < n; ++i) {
    const ElementId a = p[i].first;
    const ElementId b = p[i].second;
    const double va = instance_->value(a);
    const double vb = instance_->value(b);
    const bool a_wins = (va > vb) | ((va == vb) & (a < b));
    // Inline Instance::RelativeDifference — the identical FP operations,
    // so p_error (and with it the draw threshold) cannot diverge from
    // the per-call path.
    const double denom = std::max(std::fabs(va), std::fabs(vb));
    const double rel = denom == 0.0 ? 0.0 : std::fabs(va - vb) / denom;
    const double p_error =
        std::min(max_error, base_error * std::exp(-decay * rel));
    const uint64_t thr = ClampedThreshold(p_error);
    threshold[i] = thr;
    on_true[i] = a_wins ? b : a;
    on_false[i] = a_wins ? a : b;
    open_all &= static_cast<unsigned>(ThresholdDraws(thr));
  }
  const bool all_open = open_all != 0;
  ResolveIndependentBulk(rng_, scratch_, n, all_open, out);
  AddComparisons(static_cast<int64_t>(n));
  return static_cast<int64_t>(n);
}


std::unique_ptr<Comparator> RelativeErrorComparator::Fork(
    uint64_t seed) const {
  return std::make_unique<RelativeErrorComparator>(instance_, options_, seed);
}

Status RelativeErrorComparator::SaveState(CheckpointWriter* writer) const {
  Status counter = SaveCounterState(writer);
  if (!counter.ok()) return counter;
  writer->WriteTag(kRngTag);
  writer->WriteRngState(rng_.state());
  return Status::OK();
}

Status RelativeErrorComparator::LoadState(CheckpointReader* reader) {
  Status counter = LoadCounterState(reader);
  if (!counter.ok()) return counter;
  reader->ExpectTag(kRngTag);
  rng_.set_state(reader->ReadRngState());
  return reader->status();
}

DistanceDecayComparator::DistanceDecayComparator(const Instance* instance,
                                                 const Options& options,
                                                 uint64_t seed)
    : instance_(instance), options_(options), rng_(seed) {
  CROWDMAX_CHECK(instance != nullptr);
  CROWDMAX_CHECK(options.delta >= 0.0);
  CROWDMAX_CHECK(options.below_threshold_correct_prob >= 0.0 &&
                 options.below_threshold_correct_prob <= 1.0);
  CROWDMAX_CHECK(options.epsilon_at_threshold >= 0.0 &&
                 options.epsilon_at_threshold < 0.5);
  CROWDMAX_CHECK(options.decay >= 0.0);
}

ElementId DistanceDecayComparator::DoCompare(ElementId a, ElementId b) {
  CROWDMAX_DCHECK(instance_->Contains(a) && instance_->Contains(b));
  const ElementId correct = TrueWinner(*instance_, a, b);
  const double d = instance_->Distance(a, b);
  if (d <= options_.delta) {
    return rng_.NextBernoulli(options_.below_threshold_correct_prob)
               ? correct
               : Other(correct, a, b);
  }
  const double p_error = options_.epsilon_at_threshold *
                         std::exp(-options_.decay * (d - options_.delta));
  if (rng_.NextBernoulli(p_error)) return Other(correct, a, b);
  return correct;
}

int64_t DistanceDecayComparator::GenerateVotes(
    std::span<const ComparisonPair> pairs, std::span<ElementId> out) {
  CROWDMAX_CHECK(out.size() >= pairs.size());
  const size_t n = ValidPrefix(*instance_, pairs);
  scratch_.Resize(n);
  const double delta = options_.delta;
  const double decay = options_.decay;
  const double epsilon_at = options_.epsilon_at_threshold;
  const uint64_t coin_thr =
      ClampedThreshold(options_.below_threshold_correct_prob);
  const ComparisonPair* p = pairs.data();
  uint64_t* __restrict threshold = scratch_.threshold.data();
  ElementId* __restrict on_true = scratch_.on_true.data();
  ElementId* __restrict on_false = scratch_.on_false.data();
  unsigned open_all = 1;
  for (size_t i = 0; i < n; ++i) {
    const ElementId a = p[i].first;
    const ElementId b = p[i].second;
    const double va = instance_->value(a);
    const double vb = instance_->value(b);
    const bool a_wins = (va > vb) | ((va == vb) & (a < b));
    // Inline Instance::Distance — the identical FP operation, so the
    // regime split cannot diverge from the per-call path.
    const double d = std::fabs(va - vb);
    const bool above = d > delta;
    // sel folds correct/other into one pair of selects: above rows put
    // the loser on the draw's true side, below rows the winner.
    const bool sel = a_wins != above;
    uint64_t thr = coin_thr;
    if (above) {
      thr = ClampedThreshold(epsilon_at * std::exp(-decay * (d - delta)));
    }
    threshold[i] = thr;
    on_true[i] = sel ? a : b;
    on_false[i] = sel ? b : a;
    open_all &= static_cast<unsigned>(ThresholdDraws(thr));
  }
  const bool all_open = open_all != 0;
  ResolveIndependentBulk(rng_, scratch_, n, all_open, out);
  AddComparisons(static_cast<int64_t>(n));
  return static_cast<int64_t>(n);
}


std::unique_ptr<Comparator> DistanceDecayComparator::Fork(
    uint64_t seed) const {
  return std::make_unique<DistanceDecayComparator>(instance_, options_, seed);
}

Status DistanceDecayComparator::SaveState(CheckpointWriter* writer) const {
  Status counter = SaveCounterState(writer);
  if (!counter.ok()) return counter;
  writer->WriteTag(kRngTag);
  writer->WriteRngState(rng_.state());
  return Status::OK();
}

Status DistanceDecayComparator::LoadState(CheckpointReader* reader) {
  Status counter = LoadCounterState(reader);
  if (!counter.ok()) return counter;
  reader->ExpectTag(kRngTag);
  rng_.set_state(reader->ReadRngState());
  return reader->status();
}

PersistentBiasComparator::PersistentBiasComparator(const Instance* instance,
                                                   const Options& options,
                                                   uint64_t seed)
    : instance_(instance), options_(options), rng_(seed) {
  CROWDMAX_CHECK(instance != nullptr);
  double prev = 0.0;
  for (const Bucket& bucket : options.buckets) {
    CROWDMAX_CHECK(bucket.max_relative_difference >= prev);
    CROWDMAX_CHECK(bucket.preferred_correct_prob >= 0.0 &&
                   bucket.preferred_correct_prob <= 1.0);
    prev = bucket.max_relative_difference;
  }
  CROWDMAX_CHECK(options.individual_noise >= 0.0 &&
                 options.individual_noise <= 1.0);
  CROWDMAX_CHECK(options.above_threshold_error >= 0.0 &&
                 options.above_threshold_error < 0.5);
  bucket_thresholds_.reserve(options.buckets.size());
  for (const Bucket& bucket : options.buckets) {
    bucket_thresholds_.push_back(
        ClampedThreshold(bucket.preferred_correct_prob));
  }
  noise_threshold_ = ClampedThreshold(options.individual_noise);
  error_threshold_ = ClampedThreshold(options.above_threshold_error);
}

ElementId PersistentBiasComparator::DoCompare(ElementId a, ElementId b) {
  CROWDMAX_DCHECK(instance_->Contains(a) && instance_->Contains(b));
  const ElementId correct = TrueWinner(*instance_, a, b);
  const double rel = instance_->RelativeDifference(a, b);

  const Bucket* bucket = nullptr;
  for (const Bucket& candidate : options_.buckets) {
    if (rel <= candidate.max_relative_difference) {
      bucket = &candidate;
      break;
    }
  }

  if (bucket == nullptr) {
    // Easy pair: independent per-query error.
    if (rng_.NextBernoulli(options_.above_threshold_error)) {
      return Other(correct, a, b);
    }
    return correct;
  }

  // Hard pair: resolve (or recall) the crowd's persistent preference, then
  // apply individual per-query noise around it.
  const uint64_t key = PackPairKey(a, b);
  PairValuePtr slot = preferred_.Find(key);
  if (slot == nullptr) {
    const bool preference_correct =
        rng_.NextBernoulli(bucket->preferred_correct_prob);
    const ElementId preferred =
        preference_correct ? correct : Other(correct, a, b);
    slot = preferred_.Insert(key, preferred);
  }
  const ElementId preferred = *slot;
  if (rng_.NextBernoulli(options_.individual_noise)) {
    return Other(preferred, a, b);
  }
  return preferred;
}

int64_t PersistentBiasComparator::GenerateVotes(
    std::span<const ComparisonPair> pairs, std::span<ElementId> out) {
  CROWDMAX_CHECK(out.size() >= pairs.size());
  const size_t n = ValidPrefix(*instance_, pairs);
  scratch_.Resize(n);
  // Pass 1 (no RNG): bucket each row on inline value loads, touch the
  // preferred-winner table exactly once (Reserve pins the arena, so the
  // Insert's value handle stays valid for the whole batch), and count
  // the exact draws the per-call path would make (preference draw on
  // first touch, then a noise draw, each skipped at a closed
  // probability). The fabs/max/divide below are the identical FP
  // operations of TrueWinner + Instance::RelativeDifference, so bucket
  // classification cannot diverge from the per-call path.
  const Bucket* buckets = options_.buckets.data();
  const size_t num_buckets = options_.buckets.size();
  const bool noise_draws = ThresholdDraws(noise_threshold_);
  const bool error_draws = ThresholdDraws(error_threshold_);
  scratch_.slots.resize(n);
  preferred_.Reserve(static_cast<int64_t>(n));
  const ComparisonPair* p = pairs.data();
  uint64_t* __restrict threshold = scratch_.threshold.data();
  ElementId* __restrict on_true = scratch_.on_true.data();
  ElementId* __restrict on_false = scratch_.on_false.data();
  uint8_t* __restrict sticky = scratch_.sticky.data();
  PairValuePtr* __restrict slots = scratch_.slots.data();
  bool any_hard = false;
  size_t draws = 0;
  for (size_t i = 0; i < n; ++i) {
    const ElementId a = p[i].first;
    const ElementId b = p[i].second;
    const double va = instance_->value(a);
    const double vb = instance_->value(b);
    const bool a_wins = (va > vb) | ((va == vb) & (a < b));
    const ElementId correct = a_wins ? a : b;
    const ElementId other = a_wins ? b : a;
    const double denom = std::max(std::fabs(va), std::fabs(vb));
    const double rel = denom == 0.0 ? 0.0 : std::fabs(va - vb) / denom;
    size_t bucket = num_buckets;
    for (size_t k = 0; k < num_buckets; ++k) {
      if (rel <= buckets[k].max_relative_difference) {
        bucket = k;
        break;
      }
    }
    if (bucket == num_buckets) {
      // Easy pair: one error draw, errs toward the non-correct element.
      threshold[i] = error_threshold_;
      on_true[i] = other;
      on_false[i] = correct;
      sticky[i] = 0;
      draws += error_draws ? 1 : 0;
    } else {
      const uint64_t thr = bucket_thresholds_[bucket];
      threshold[i] = thr;
      on_true[i] = correct;
      on_false[i] = other;
      bool fresh = false;
      // Placeholder value; pass 2 draws the real preference via the slot.
      slots[i] = preferred_.Insert(PackPairKey(a, b), correct, &fresh);
      sticky[i] = fresh ? 1 : 2;
      draws += (fresh && ThresholdDraws(thr) ? 1 : 0) + (noise_draws ? 1 : 0);
      any_hard = true;
    }
  }
  if (!any_hard) {
    // Every row was easy, so openness is the one class flag.
    ResolveIndependentBulk(rng_, scratch_, n, error_draws, out);
  } else {
    // Pass 2: bulk-generate the exact draw count, then resolve rows in
    // order — preference draw (first touch only), then noise draw. Hard
    // rows resolve through the pass-1 value handles: no re-probe.
    scratch_.raw.resize(draws);
    rng_.FillRaw({scratch_.raw.data(), draws});
    const uint64_t* __restrict raw = scratch_.raw.data();
    size_t cursor = 0;
    for (size_t i = 0; i < n; ++i) {
      if (sticky[i] == 0) {
        out[i] = ConsumeDraw(raw, threshold[i], &cursor) ? on_true[i]
                                                         : on_false[i];
        continue;
      }
      const ElementId correct = on_true[i];
      const ElementId other = on_false[i];
      ElementId preferred;
      if (sticky[i] == 1) {
        preferred = ConsumeDraw(raw, threshold[i], &cursor) ? correct : other;
        *slots[i] = preferred;
      } else {
        preferred = *slots[i];
      }
      out[i] = ConsumeDraw(raw, noise_threshold_, &cursor)
                   ? (preferred == correct ? other : correct)
                   : preferred;
    }
    CROWDMAX_DCHECK(cursor == draws);
  }
  AddComparisons(static_cast<int64_t>(n));
  return static_cast<int64_t>(n);
}


std::unique_ptr<Comparator> PersistentBiasComparator::Fork(
    uint64_t seed) const {
  return std::make_unique<PersistentBiasComparator>(instance_, options_, seed);
}

Status PersistentBiasComparator::SaveState(CheckpointWriter* writer) const {
  Status counter = SaveCounterState(writer);
  if (!counter.ok()) return counter;
  writer->WriteTag(kRngTag);
  writer->WriteRngState(rng_.state());
  writer->WriteTag(kStickyTag);
  SavePairTable(writer, preferred_);
  return Status::OK();
}

Status PersistentBiasComparator::LoadState(CheckpointReader* reader) {
  Status counter = LoadCounterState(reader);
  if (!counter.ok()) return counter;
  reader->ExpectTag(kRngTag);
  rng_.set_state(reader->ReadRngState());
  reader->ExpectTag(kStickyTag);
  LoadPairTable(reader, &preferred_);
  return reader->status();
}

}  // namespace crowdmax
