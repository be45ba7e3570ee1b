#include "core/execution.h"

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/round_engine.h"

namespace crowdmax {

std::string FaultReport::ToString() const {
  std::string out = "batches=" + std::to_string(batches) +
                    " attempts=" + std::to_string(attempts) +
                    " retried_tasks=" + std::to_string(retried_tasks) +
                    " votes_lost=" + std::to_string(votes_lost) +
                    " relaxed_accepts=" + std::to_string(relaxed_accepts) +
                    " degraded_tasks=" + std::to_string(degraded_tasks) +
                    " transient_errors=" + std::to_string(transient_errors) +
                    " steps_added=" + std::to_string(steps_added) +
                    " backoff_steps=" + std::to_string(backoff_steps);
  if (exhausted) out += " exhausted(" + last_error.ToString() + ")";
  return out;
}

Result<std::unique_ptr<RoundEngine>> Execution::Engine(
    bool memoize, SharedPairCache* cache, int64_t cache_class,
    int64_t threads, uint64_t seed) const {
  if (comparator_ != nullptr) {
    if (threads >= 1) {
      return RoundEngine::CreateParallel(comparator_, threads, seed, memoize,
                                         cache, cache_class);
    }
    return RoundEngine::CreateSerial(comparator_, memoize, cache,
                                     cache_class);
  }
  if (executor_ != nullptr) {
    return RoundEngine::CreateBatched(executor_, memoize, cache, cache_class);
  }
  CROWDMAX_CHECK(async_ != nullptr);
  return RoundEngine::CreatePipelined(async_, max_in_flight_, memoize, cache,
                                      cache_class);
}

const FaultReport* Execution::fault_report() const {
  if (executor_ != nullptr) return executor_->fault_report();
  if (async_ != nullptr) return async_->inner()->fault_report();
  return nullptr;
}

}  // namespace crowdmax
