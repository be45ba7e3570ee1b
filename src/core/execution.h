// What answers one worker class's comparisons.
//
// Every query — FilterCandidates, TwoMaxFind, RandomizedMaxFind,
// FindMaxWithExperts, FindTopKWithExperts, FindMaxMultilevel — is written
// once, as round sources driven on a RoundEngine (core/round_engine.h). An
// Execution names the backend that answers one worker class's rounds, and
// is the one place that maps it onto RoundEngine::Create*:
//  - a Comparator, run serial, or parallel when the options ask for
//    threads (FilterOptions::threads);
//  - a BatchExecutor stack (fault injection, retry/quorum recovery,
//    platform adapters, core/batched.h): one logical step per round;
//  - an AsyncBatchExecutor with a pipeline depth (core/async_executor.h):
//    rounds the source allows ride the crowd latency concurrently, with
//    results, counters and traces bit-identical to its inner stack's.
// An Execution is a small value held on the caller's stack; it owns
// nothing, and the backend must outlive every query run on it.

#ifndef CROWDMAX_CORE_EXECUTION_H_
#define CROWDMAX_CORE_EXECUTION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace crowdmax {

class AsyncBatchExecutor;
class BatchExecutor;
class Comparator;
class RoundEngine;
class SharedPairCache;

/// Fault/recovery accounting of a resilient execution (core/resilient.h):
/// what was retried, what was lost, what was degraded and what the
/// recovery cost in extra logical steps. Copied into the query results and
/// printed by the benches so EXPERIMENTS can chart cost and latency
/// inflation versus fault rate.
struct FaultReport {
  /// Caller-visible batches executed.
  int64_t batches = 0;
  /// Inner submissions, including retries (>= batches).
  int64_t attempts = 0;
  /// Task re-issues caused by unanswered or no-quorum outcomes.
  int64_t retried_tasks = 0;
  /// Task outcomes observed without a counted answer (before retry).
  int64_t votes_lost = 0;
  /// No-quorum outcomes accepted under the relaxed-quorum policy.
  int64_t relaxed_accepts = 0;
  /// Tasks resolved by the fallback tie-break after the retry budget ran
  /// out.
  int64_t degraded_tasks = 0;
  /// Whole-batch transient errors (Unavailable) absorbed by retrying.
  int64_t transient_errors = 0;
  /// Extra logical steps the recovery cost: inner steps beyond the one
  /// step per caller-visible batch, plus exponential-backoff waits.
  int64_t steps_added = 0;
  /// Backoff waits alone, in logical steps (included in steps_added).
  int64_t backoff_steps = 0;
  /// True when a batch exhausted its retry budget with unresolved tasks
  /// and no fallback policy was available; `last_error` holds the typed
  /// Status that was propagated.
  bool exhausted = false;
  Status last_error;

  /// One-line human-readable summary for benches and logs.
  std::string ToString() const;
};

/// The backend of one worker class. The Comparator and BatchExecutor
/// constructors are implicit, so a `Comparator*` or `BatchExecutor*`
/// passes wherever a query expects an Execution.
class Execution {
 public:
  /// No backend: queries reject it (multilevel) or CHECK-fail on it.
  Execution() = default;
  /// Comparator backend: serial, or parallel when the query's options ask
  /// for threads.
  Execution(Comparator* comparator)  // NOLINT(runtime/explicit)
      : comparator_(comparator) {}
  /// Executor backend: every round's cache misses go to `executor` as one
  /// fallible batch.
  Execution(BatchExecutor* executor)  // NOLINT(runtime/explicit)
      : executor_(executor) {}
  /// Pipelined backend: up to `max_in_flight` rounds in flight on `async`.
  Execution(AsyncBatchExecutor* async, int64_t max_in_flight)
      : async_(async), max_in_flight_(max_in_flight) {}

  bool empty() const {
    return comparator_ == nullptr && executor_ == nullptr && async_ == nullptr;
  }

  /// The comparator of a comparator backend, else nullptr. Comparator
  /// backends have no executor to record trace cells; the queries record
  /// their phase-2 spend as one cell instead.
  Comparator* comparator() const { return comparator_; }

  /// Builds the engine of one phase, memoizing into `cache`'s
  /// `cache_class` table when `cache` is set (a shared cache implies
  /// memoization) and into a private table when only `memoize` is.
  /// `memoize` means the same on every backend; `threads` and `seed` are
  /// read only by a comparator backend (threads >= 1 selects the parallel
  /// engine, its fork chain seeded by `seed`).
  Result<std::unique_ptr<RoundEngine>> Engine(bool memoize,
                                              SharedPairCache* cache,
                                              int64_t cache_class,
                                              int64_t threads = 0,
                                              uint64_t seed = 0) const;

  /// The fault/recovery report of the executor stack, or nullptr when it
  /// keeps none (comparators, and stacks without a resilient layer).
  const FaultReport* fault_report() const;

 private:
  Comparator* comparator_ = nullptr;
  BatchExecutor* executor_ = nullptr;
  AsyncBatchExecutor* async_ = nullptr;
  int64_t max_in_flight_ = 1;
};

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_EXECUTION_H_
