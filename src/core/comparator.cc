#include "core/comparator.h"

#include <algorithm>
#include <string>

#include "core/checkpoint.h"
#include "core/loss_matrix.h"
#include "core/pair_table.h"

namespace crowdmax {

namespace {
constexpr uint32_t kComparatorTag = CheckpointTag("CMP ");
}  // namespace

Status Comparator::SaveState(CheckpointWriter* /*writer*/) const {
  return Status::FailedPrecondition(
      "this comparator does not support checkpointing; a resumed run would "
      "replay with a reset RNG stream");
}

Status Comparator::LoadState(CheckpointReader* /*reader*/) {
  return Status::FailedPrecondition(
      "this comparator does not support checkpointing");
}

Status Comparator::SaveCounterState(CheckpointWriter* writer) const {
  writer->WriteTag(kComparatorTag);
  writer->WriteI64(num_comparisons_);
  return Status::OK();
}

Status Comparator::LoadCounterState(CheckpointReader* reader) {
  reader->ExpectTag(kComparatorTag);
  num_comparisons_ = reader->ReadI64();
  return reader->status();
}

Status RefusedPairError(const ComparisonPair& pair) {
  return Status::InvalidArgument(
      "the comparator refused the pair {" + std::to_string(pair.first) +
      ", " + std::to_string(pair.second) + "}: an id outside its instance");
}

int64_t VoteBatchComparator::GenerateTournament(
    std::span<const ElementId> players, std::span<const uint64_t> skip,
    LossMatrix* losses) {
  const size_t k = players.size();
  tournament_pairs_.resize(k * (k - 1) / 2);
  ComparisonPair* pair = tournament_pairs_.data();
  ForEachUnskippedPair(k, losses->stride(), skip, [&](size_t i, size_t j) {
    *pair++ = {players[i], players[j]};
  });
  tournament_pairs_.resize(
      static_cast<size_t>(pair - tournament_pairs_.data()));
  tournament_answers_.resize(tournament_pairs_.size());
  const int64_t answered =
      GenerateVotes(tournament_pairs_, tournament_answers_);
  // The refused pair and every pair after it fold as no evidence.
  std::fill(tournament_answers_.begin() + answered, tournament_answers_.end(),
            kUnresolvedWinner);
  FoldAnswers(players, skip, tournament_answers_, losses);
  return answered;
}

OracleComparator::OracleComparator(const Instance* instance)
    : instance_(instance) {
  CROWDMAX_CHECK(instance != nullptr);
}

ElementId OracleComparator::DoCompare(ElementId a, ElementId b) {
  CROWDMAX_DCHECK(instance_->Contains(a) && instance_->Contains(b));
  if (instance_->value(a) > instance_->value(b)) return a;
  if (instance_->value(b) > instance_->value(a)) return b;
  return std::min(a, b);
}

std::unique_ptr<Comparator> OracleComparator::Fork(uint64_t /*seed*/) const {
  return std::make_unique<OracleComparator>(instance_);
}

Status OracleComparator::SaveState(CheckpointWriter* writer) const {
  return SaveCounterState(writer);
}

Status OracleComparator::LoadState(CheckpointReader* reader) {
  return LoadCounterState(reader);
}

AdversarialComparator::AdversarialComparator(const Instance* instance,
                                             double delta,
                                             AdversarialPolicy policy)
    : instance_(instance), delta_(delta), policy_(policy) {
  CROWDMAX_CHECK(instance != nullptr);
  CROWDMAX_CHECK(delta >= 0.0);
}

ElementId AdversarialComparator::DoCompare(ElementId a, ElementId b) {
  CROWDMAX_DCHECK(instance_->Contains(a) && instance_->Contains(b));
  const double va = instance_->value(a);
  const double vb = instance_->value(b);
  if (instance_->Distance(a, b) > delta_) {
    return va > vb ? a : b;
  }
  switch (policy_) {
    case AdversarialPolicy::kFirstLoses:
      return b;
    case AdversarialPolicy::kLowerValueWins:
      if (va == vb) return std::max(a, b);
      return va < vb ? a : b;
    case AdversarialPolicy::kHigherValueWins:
      if (va == vb) return std::min(a, b);
      return va > vb ? a : b;
  }
  return a;
}

std::unique_ptr<Comparator> AdversarialComparator::Fork(
    uint64_t /*seed*/) const {
  return std::make_unique<AdversarialComparator>(instance_, delta_, policy_);
}

Status AdversarialComparator::SaveState(CheckpointWriter* writer) const {
  return SaveCounterState(writer);
}

Status AdversarialComparator::LoadState(CheckpointReader* reader) {
  return LoadCounterState(reader);
}

}  // namespace crowdmax
