// A test decorator that hides a comparator's batch vote interface.
//
// The comparator backends of the round engine answer a unit with one
// VoteBatchComparator call when the comparator offers one, and pair by pair
// through Compare otherwise — the only path for comparators without a
// batch interface (OracleComparator, AdversarialComparator,
// PlatformComparator). PerCallComparator forwards Compare, Fork, IdLimit,
// SaveState and LoadState to the comparator it wraps and returns nullptr
// from AsVoteBatch, so an engine driven on it takes the per-call path while
// drawing the very votes the batch path draws from the wrapped comparator.

#ifndef CROWDMAX_TESTS_PER_CALL_COMPARATOR_H_
#define CROWDMAX_TESTS_PER_CALL_COMPARATOR_H_

#include <memory>
#include <utility>

#include "core/comparator.h"

namespace crowdmax {

class PerCallComparator : public Comparator {
 public:
  /// Wraps `inner` (not owned).
  explicit PerCallComparator(Comparator* inner) : inner_(inner) {}

  /// Forks the wrapped comparator and hides the fork's batch interface
  /// too. The parallel engine merges the forks' counts into this
  /// decorator, not into the comparator it wraps.
  std::unique_ptr<Comparator> Fork(uint64_t seed) const override {
    std::unique_ptr<Comparator> fork = inner_->Fork(seed);
    if (fork == nullptr) return nullptr;
    auto wrapped = std::make_unique<PerCallComparator>(fork.get());
    wrapped->owned_ = std::move(fork);
    return wrapped;
  }

  int64_t IdLimit() const override { return inner_->IdLimit(); }

  Status SaveState(CheckpointWriter* writer) const override {
    return inner_->SaveState(writer);
  }
  Status LoadState(CheckpointReader* reader) override {
    return inner_->LoadState(reader);
  }

 private:
  ElementId DoCompare(ElementId a, ElementId b) override {
    return inner_->Compare(a, b);
  }

  Comparator* inner_;
  std::unique_ptr<Comparator> owned_;  // Set on forks only.
};

}  // namespace crowdmax

#endif  // CROWDMAX_TESTS_PER_CALL_COMPARATOR_H_
