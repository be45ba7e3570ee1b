// The AsyncBatchExecutor contract (core/async_executor.h): handles, the
// compute-at-submit discipline that keeps pipelined runs bit-identical to
// synchronous ones, and latency banking through the decorator stack. No
// test here asserts on wall-clock durations — timing assertions flake;
// what is pinned instead is *where* the deterministic effects land
// (submission time) and *where* the simulated latency goes (drained from
// the inner stack into the adapter's deadline, not left behind).

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/resilient.h"
#include "datasets/instances.h"
#include "platform/platform.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

// An executor whose fallible path always rejects the submission, for
// pinning that a stored failure is delivered at Wait, not at submit.
class AlwaysUnavailableExecutor : public BatchExecutor {
 private:
  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>&) override {
    return Status::Unavailable("platform down");
  }
};

TEST(AsyncBatchAdapterTest, ComputeAtSubmitAndHandleLifecycle) {
  Instance instance = MakeInstance(4, 31);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);
  EXPECT_EQ(async.inner(), &executor);

  Result<int64_t> handle = async.SubmitBatchAsync({{0, 1}, {2, 3}});
  ASSERT_TRUE(handle.ok());

  // Compute-at-submit: the inner executor's counters are final before any
  // Wait — this is what makes the pipelined budget gate exact.
  EXPECT_EQ(executor.comparisons(), 2);
  EXPECT_EQ(executor.logical_steps(), 1);
  // No latency model on the inner stack: the deadline is already "now".
  EXPECT_TRUE(async.Ready(*handle));

  Result<std::vector<BatchTaskResult>> results = async.Wait(*handle);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  for (const BatchTaskResult& result : *results) {
    EXPECT_TRUE(result.answered);
  }
  EXPECT_EQ((*results)[0].winner,
            instance.value(0) >= instance.value(1) ? 0 : 1);
  EXPECT_EQ((*results)[1].winner,
            instance.value(2) >= instance.value(3) ? 2 : 3);

  // Wait consumes the handle; a second Wait and an unknown handle are
  // caller errors, not crashes.
  Result<std::vector<BatchTaskResult>> again = async.Wait(*handle);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(async.Ready(*handle));
  Result<std::vector<BatchTaskResult>> unknown = async.Wait(123456);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(async.submitted(), 1);
  EXPECT_EQ(async.collected(), 1);
}

TEST(AsyncBatchAdapterTest, EmptyBatchIsLegalAndCostsNoStep) {
  Instance instance = MakeInstance(2, 37);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);

  Result<int64_t> handle = async.SubmitBatchAsync({});
  ASSERT_TRUE(handle.ok());
  // Mirrors the synchronous path: an empty batch is a no-op step.
  EXPECT_EQ(executor.logical_steps(), 0);
  EXPECT_EQ(executor.comparisons(), 0);
  Result<std::vector<BatchTaskResult>> results = async.Wait(*handle);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(AsyncBatchAdapterTest, InterleavedSubmissionsMatchSynchronousPath) {
  Instance instance = MakeInstance(12, 41);
  const std::vector<std::vector<ComparisonPair>> batches = {
      {{0, 1}, {2, 3}, {4, 5}}, {{6, 7}, {8, 9}}, {{10, 11}, {0, 2}}};

  // Reference: the same batches run synchronously on a fresh executor.
  OracleComparator sync_oracle(&instance);
  ComparatorBatchExecutor sync_executor(&sync_oracle);
  std::vector<std::vector<BatchTaskResult>> expected;
  for (const std::vector<ComparisonPair>& batch : batches) {
    Result<std::vector<BatchTaskResult>> result =
        sync_executor.TryExecuteBatch(batch);
    ASSERT_TRUE(result.ok());
    expected.push_back(*std::move(result));
  }

  // Async: all three batches in flight before the first Wait. FIFO
  // collection must return each batch's own answers, and the inner
  // counters must already agree with the synchronous run at full depth.
  OracleComparator async_oracle(&instance);
  ComparatorBatchExecutor async_executor(&async_oracle);
  AsyncBatchAdapter async(&async_executor);
  std::vector<int64_t> handles;
  for (const std::vector<ComparisonPair>& batch : batches) {
    Result<int64_t> handle = async.SubmitBatchAsync(batch);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  EXPECT_EQ(async_executor.comparisons(), sync_executor.comparisons());
  EXPECT_EQ(async_executor.logical_steps(), sync_executor.logical_steps());
  EXPECT_EQ(async.submitted(), 3);
  EXPECT_EQ(async.collected(), 0);

  for (size_t i = 0; i < handles.size(); ++i) {
    Result<std::vector<BatchTaskResult>> results = async.Wait(handles[i]);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), expected[i].size()) << "batch " << i;
    for (size_t t = 0; t < results->size(); ++t) {
      EXPECT_EQ((*results)[t].winner, expected[i][t].winner)
          << "batch " << i << " task " << t;
      EXPECT_EQ((*results)[t].answered, expected[i][t].answered)
          << "batch " << i << " task " << t;
    }
  }
  EXPECT_EQ(async.collected(), 3);
}

TEST(AsyncBatchAdapterTest, SubmissionFailureIsStoredAndDeliveredAtWait) {
  AlwaysUnavailableExecutor executor;
  AsyncBatchAdapter async(&executor);

  // The submission itself succeeds — the failure is the batch's *result*,
  // collected like any other so the pipelined drive sees faults in the
  // same order the synchronous drive would.
  Result<int64_t> handle = async.SubmitBatchAsync({{0, 1}});
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(async.Ready(*handle));
  Result<std::vector<BatchTaskResult>> results = async.Wait(*handle);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(async.submitted(), 1);
  EXPECT_EQ(async.collected(), 1);
}

TEST(AsyncBatchAdapterTest, LatencyDrainsThroughResilientStack) {
  Instance instance = MakeInstance(16, 43);
  OracleComparator crowd_model(&instance);
  PlatformOptions options;
  options.num_workers = 10;
  options.spammer_fraction = 0.0;
  options.honest_slip_probability = 0.0;
  options.gold_task_probability = 0.0;
  // Tiny but non-zero latency terms: enough to prove the draws happen and
  // get banked, small enough that Wait's sleep is negligible.
  options.latency.base_micros = 200;
  options.latency.per_task_micros = 10;
  options.latency.jitter_micros = 50;
  options.latency.seed = 7;
  Result<std::unique_ptr<CrowdPlatform>> platform =
      CrowdPlatform::Create(&crowd_model, &instance, {}, options);
  ASSERT_TRUE(platform.ok());
  Result<std::unique_ptr<PlatformBatchExecutor>> platform_executor =
      PlatformBatchExecutor::Create(platform->get(), /*votes_per_task=*/3);
  ASSERT_TRUE(platform_executor.ok());
  Result<std::unique_ptr<ResilientBatchExecutor>> resilient =
      ResilientBatchExecutor::Create(platform_executor->get());
  ASSERT_TRUE(resilient.ok());
  AsyncBatchAdapter async(resilient->get());

  Result<int64_t> first = async.SubmitBatchAsync({{0, 1}, {2, 3}});
  ASSERT_TRUE(first.ok());
  Result<int64_t> second = async.SubmitBatchAsync({{4, 5}, {6, 7}});
  ASSERT_TRUE(second.ok());

  // The platform drew a latency per submission and the adapter drained it
  // through the resilient decorator into its deadlines at submit time —
  // nothing is left in the stack for anyone else to steal.
  EXPECT_GE((*platform)->total_latency_micros(),
            2 * options.latency.base_micros);
  EXPECT_EQ((*resilient)->TakeSimulatedLatencyMicros(), 0);
  EXPECT_EQ((*platform_executor)->TakeSimulatedLatencyMicros(), 0);

  for (int64_t handle : {*first, *second}) {
    Result<std::vector<BatchTaskResult>> results = async.Wait(handle);
    ASSERT_TRUE(results.ok());
    for (const BatchTaskResult& result : *results) {
      EXPECT_TRUE(result.answered);
    }
  }
}

TEST(AsyncBatchAdapterTest, SpeculativeLifecycle) {
  Instance instance = MakeInstance(6, 47);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);

  Result<int64_t> handle = async.SubmitSpeculativeBatch();
  ASSERT_TRUE(handle.ok());

  // Nothing ran: a speculative submission records only the wall-clock
  // start of a round trip.
  EXPECT_EQ(executor.comparisons(), 0);
  EXPECT_EQ(executor.logical_steps(), 0);

  // Waiting on an unconfirmed handle is a caller error, not a block; Ready
  // reports false because there is nothing to collect.
  EXPECT_FALSE(async.Ready(*handle));
  Result<std::vector<BatchTaskResult>> premature = async.Wait(*handle);
  ASSERT_FALSE(premature.ok());
  EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);

  // Confirm supplies the tasks: all deterministic effects land here,
  // exactly where a firm submission would have put them.
  ASSERT_TRUE(async.ConfirmBatch(*handle, {{0, 1}, {2, 3}}).ok());
  EXPECT_EQ(executor.comparisons(), 2);
  EXPECT_EQ(executor.logical_steps(), 1);

  // Confirming twice is a caller error.
  Status again = async.ConfirmBatch(*handle, {{4, 5}});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);

  EXPECT_TRUE(async.Ready(*handle));
  Result<std::vector<BatchTaskResult>> results = async.Wait(*handle);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].winner,
            instance.value(0) >= instance.value(1) ? 0 : 1);
}

TEST(AsyncBatchAdapterTest, ConfirmOnFirmHandleIsError) {
  Instance instance = MakeInstance(4, 53);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);

  Result<int64_t> handle = async.SubmitBatchAsync({{0, 1}});
  ASSERT_TRUE(handle.ok());
  Status confirm = async.ConfirmBatch(*handle, {{2, 3}});
  ASSERT_FALSE(confirm.ok());
  EXPECT_EQ(confirm.code(), StatusCode::kFailedPrecondition);
  // The firm batch is untouched by the failed confirm.
  Result<std::vector<BatchTaskResult>> results = async.Wait(*handle);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST(AsyncBatchAdapterTest, CancelRefundsBankedAnswers) {
  Instance instance = MakeInstance(8, 59);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);

  // Cancelling an unconfirmed speculative handle: nothing was computed,
  // so nothing is refunded.
  Result<int64_t> spec = async.SubmitSpeculativeBatch();
  ASSERT_TRUE(spec.ok());
  Result<int64_t> refunded = async.CancelBatch(*spec);
  ASSERT_TRUE(refunded.ok());
  EXPECT_EQ(*refunded, 0);
  EXPECT_EQ(async.cancelled(), 1);
  EXPECT_EQ(async.refunded_answers(), 0);
  // The handle is consumed.
  EXPECT_FALSE(async.Wait(*spec).ok());

  // Cancelling a firm handle throws away already-computed answers; the
  // refund reports how many.
  Result<int64_t> firm = async.SubmitBatchAsync({{0, 1}, {2, 3}, {4, 5}});
  ASSERT_TRUE(firm.ok());
  refunded = async.CancelBatch(*firm);
  ASSERT_TRUE(refunded.ok());
  EXPECT_EQ(*refunded, 3);
  EXPECT_EQ(async.cancelled(), 2);
  EXPECT_EQ(async.refunded_answers(), 3);
  EXPECT_FALSE(async.Wait(*firm).ok());

  // Unknown handles are invalid-argument, matching Wait.
  Result<int64_t> unknown = async.CancelBatch(987654);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crowdmax
