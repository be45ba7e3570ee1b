// QueryService: the multi-tenant determinism contract, typed admission
// control, fair-share starvation bound, service-level fault reconciliation
// and cross-query cache sharing (query/service.h).

#include "query/service.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/batched.h"
#include "core/instance.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "gtest/gtest.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

// A mixed workload: kMax (varying u_n and strategy), kTopK and kAbove
// queries across the given shards, no budgets/deadlines unless asked.
std::vector<QuerySpec> MixedWorkload(int64_t count, int64_t shards) {
  std::vector<QuerySpec> specs;
  specs.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    QuerySpec spec;
    spec.tenant = "t" + std::to_string(i);
    spec.shard = i % shards;
    spec.seed = 1000 + static_cast<uint64_t>(i) * 37;
    spec.prices = CostModel{1.0, 40.0};
    switch (i % 4) {
      case 0:
        spec.kind = QueryKind::kMax;
        spec.u_n = 2 + i % 3;
        break;
      case 1:
        spec.kind = QueryKind::kTopK;
        spec.u_n = 2;
        spec.k = 1 + i % 3;
        break;
      case 2:
        spec.kind = QueryKind::kAbove;
        spec.anchor = i % 7;
        spec.above.votes_per_item = 3;
        break;
      default:
        spec.kind = QueryKind::kMax;
        spec.u_n = 2;
        spec.max_comparisons = 150 + 10 * (i % 5);
        break;
    }
    specs.push_back(spec);
  }
  return specs;
}

// The deterministic fields two outcomes must agree on (everything except
// the informational latency / scheduler stats).
void ExpectOutcomesIdentical(const QueryOutcome& a, const QueryOutcome& b,
                             const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.top, b.top);
  EXPECT_EQ(a.above, b.above);
  EXPECT_EQ(a.below, b.below);
  EXPECT_EQ(a.escalated, b.escalated);
  EXPECT_EQ(a.paid.naive, b.paid.naive);
  EXPECT_EQ(a.paid.expert, b.paid.expert);
  EXPECT_EQ(a.issued.naive, b.issued.naive);
  EXPECT_EQ(a.issued.expert, b.issued.expert);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.naive_steps, b.naive_steps);
  EXPECT_EQ(a.expert_steps, b.expert_steps);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.stopped_by_budget, b.stopped_by_budget);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.fault_status.code(), b.fault_status.code());
  EXPECT_EQ(a.platform_dropped_tasks, b.platform_dropped_tasks);
  EXPECT_EQ(a.platform_no_quorum_tasks, b.platform_no_quorum_tasks);
  EXPECT_EQ(a.trace_summary, b.trace_summary);
}

// The contract's centerpiece: >= 64 concurrent queries, multiplexed over
// the shared stack at threads 1 and 8, must produce per-query results,
// counters and traces bit-identical to running each spec alone on the
// serial drive.
TEST(QueryServiceTest, ConcurrentRunMatchesSerialAloneAtBothThreadCounts) {
  const Instance shard_a = MakeInstance(80, 7);
  const Instance shard_b = MakeInstance(60, 11);

  QueryServiceOptions options;
  options.shards = {{&shard_a, shard_a.DeltaForU(4), shard_a.DeltaForU(1)},
                    {&shard_b, shard_b.DeltaForU(3), shard_b.DeltaForU(1)}};
  options.capacity = 3;
  options.collect_traces = true;

  const std::vector<QuerySpec> specs = MixedWorkload(64, 2);

  std::vector<QueryOutcome> alone;
  alone.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    Result<QueryOutcome> outcome = QueryService::ExecuteAlone(options, spec);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->status.ok()) << outcome->status.ToString();
    alone.push_back(std::move(outcome).value());
  }

  for (int64_t threads : {int64_t{1}, int64_t{8}}) {
    QueryServiceOptions concurrent = options;
    concurrent.threads = threads;
    Result<QueryService> service = QueryService::Create(concurrent);
    ASSERT_TRUE(service.ok());
    Result<ServiceRunResult> run = service->Run(specs);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->outcomes.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectOutcomesIdentical(
          alone[i], run->outcomes[i],
          "threads=" + std::to_string(threads) + " spec=" +
              std::to_string(i) + " kind=" +
              QueryKindName(specs[i].kind));
    }
    EXPECT_EQ(run->report.queries, 64);
    EXPECT_EQ(run->report.admitted, 64);
    EXPECT_EQ(run->report.completed, 64);
    EXPECT_TRUE(AuditServiceRun(*run).ok())
        << AuditServiceRun(*run).ToString();
  }
}

// The merged service trace replays per-query traces in spec order, so its
// summary is one deterministic artifact across thread counts.
TEST(QueryServiceTest, MergedTraceSummaryIsThreadCountInvariant) {
  const Instance shard = MakeInstance(50, 3);
  QueryServiceOptions options;
  options.shards = {{&shard, shard.DeltaForU(3), shard.DeltaForU(1)}};
  options.collect_traces = true;
  const std::vector<QuerySpec> specs = MixedWorkload(12, 1);

  std::string summary_at_one;
  for (int64_t threads : {int64_t{1}, int64_t{8}}) {
    QueryServiceOptions concurrent = options;
    concurrent.threads = threads;
    Result<QueryService> service = QueryService::Create(concurrent);
    ASSERT_TRUE(service.ok());
    Result<ServiceRunResult> run = service->Run(specs);
    ASSERT_TRUE(run.ok());
    ASSERT_NE(run->merged_trace, nullptr);
    const std::string summary = run->merged_trace->Summary();
    EXPECT_FALSE(summary.empty());
    if (threads == 1) {
      summary_at_one = summary;
    } else {
      EXPECT_EQ(summary, summary_at_one);
    }
  }
}

// Admission control: a query whose predicted cost exceeds its budget is
// rejected kResourceExhausted; one whose structural minimum of batch steps
// exceeds its deadline is rejected kDeadlineExceeded; malformed specs are
// rejected kInvalidArgument. Nothing rejected spends a comparison.
TEST(QueryServiceTest, AdmissionRejectionsAreTyped) {
  const Instance shard = MakeInstance(100, 5);
  QueryServiceOptions options;
  options.shards = {{&shard, shard.DeltaForU(4), shard.DeltaForU(1)}};
  Result<QueryService> service = QueryService::Create(options);
  ASSERT_TRUE(service.ok());

  QuerySpec over_budget;
  over_budget.kind = QueryKind::kMax;
  over_budget.u_n = 4;
  over_budget.budget = 0.5;  // Predicted cost is hundreds of comparisons.

  QuerySpec past_deadline;
  past_deadline.kind = QueryKind::kMax;
  past_deadline.u_n = 4;
  past_deadline.deadline_steps = 1;  // Two-phase needs >= 2 batch steps.

  QuerySpec bad_shard;
  bad_shard.shard = 9;

  QuerySpec bad_anchor;
  bad_anchor.kind = QueryKind::kAbove;
  bad_anchor.anchor = 100;

  Result<ServiceRunResult> run =
      service->Run({over_budget, past_deadline, bad_shard, bad_anchor});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcomes[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(run->outcomes[1].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run->outcomes[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(run->outcomes[3].status.code(), StatusCode::kInvalidArgument);
  for (const QueryOutcome& outcome : run->outcomes) {
    EXPECT_FALSE(outcome.admitted);
    EXPECT_EQ(outcome.paid.naive, 0);
    EXPECT_EQ(outcome.paid.expert, 0);
  }
  EXPECT_EQ(run->report.admitted, 0);
  EXPECT_EQ(run->report.rejected_budget, 1);
  EXPECT_EQ(run->report.rejected_deadline, 1);
  EXPECT_EQ(run->report.rejected_invalid, 2);
}

// A deadline that passes admission but expires mid-run aborts the query
// with the same typed status at its next batch submission — and the true
// spend up to the abort is still reported. Enforcement depends only on the
// tenant's own grant count, so the abort point is deterministic.
TEST(QueryServiceTest, MidRunDeadlineAbortIsTypedAndDeterministic) {
  const Instance shard = MakeInstance(120, 9);
  QueryServiceOptions options;
  options.shards = {{&shard, shard.DeltaForU(4), shard.DeltaForU(1)}};
  options.collect_traces = true;

  QuerySpec spec;
  spec.kind = QueryKind::kMax;
  spec.u_n = 4;
  spec.seed = 77;
  // Passes the structural minimum (2) but far below the filter's O(log n)
  // rounds plus the expert phase.
  spec.deadline_steps = 3;

  Result<QueryOutcome> alone = QueryService::ExecuteAlone(options, spec);
  ASSERT_TRUE(alone.ok());
  EXPECT_TRUE(alone->admitted);
  EXPECT_EQ(alone->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(alone->paid.naive, 0);  // The granted batches were real spend.

  QueryServiceOptions concurrent = options;
  concurrent.threads = 8;
  Result<QueryService> service = QueryService::Create(concurrent);
  ASSERT_TRUE(service.ok());
  std::vector<QuerySpec> specs = MixedWorkload(8, 1);
  specs.push_back(spec);
  Result<ServiceRunResult> run = service->Run(specs);
  ASSERT_TRUE(run.ok());
  ExpectOutcomesIdentical(*alone, run->outcomes.back(),
                          "deadline abort under concurrency");
  EXPECT_EQ(run->report.aborted_deadline, 1);
}

// Fair share: with equal weights and a single batch slot, no ready tenant
// waits more than ~2T grants to others before being served (the file
// comment's sum_o ceil(w_o/w_t) + T bound, T = tenants).
TEST(QueryServiceTest, FairShareStarvationBoundHolds) {
  const Instance shard = MakeInstance(60, 13);
  QueryServiceOptions options;
  options.shards = {{&shard, shard.DeltaForU(3), shard.DeltaForU(1)}};
  options.threads = 8;
  options.capacity = 1;  // Maximum contention for the slot.

  const int64_t tenants = 12;
  std::vector<QuerySpec> specs;
  for (int64_t i = 0; i < tenants; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kMax;
    spec.u_n = 3;
    spec.seed = 500 + static_cast<uint64_t>(i);
    specs.push_back(spec);
  }

  Result<QueryService> service = QueryService::Create(options);
  ASSERT_TRUE(service.ok());
  Result<ServiceRunResult> run = service->Run(specs);
  ASSERT_TRUE(run.ok());
  for (int64_t i = 0; i < tenants; ++i) {
    const QueryOutcome& outcome = run->outcomes[static_cast<size_t>(i)];
    EXPECT_TRUE(outcome.status.ok());
    EXPECT_LE(outcome.scheduler.max_grants_behind, 2 * tenants)
        << "tenant " << i << " starved";
  }
  EXPECT_EQ(run->report.max_grants_behind,
            std::max_element(run->outcomes.begin(), run->outcomes.end(),
                             [](const QueryOutcome& a, const QueryOutcome& b) {
                               return a.scheduler.max_grants_behind <
                                      b.scheduler.max_grants_behind;
                             })
                ->scheduler.max_grants_behind);
}

// Drives a FairShareScheduler (capacity 1) through a scripted order. Each
// tenant has a thread that calls Acquire when told to; a step returns only
// once that call was granted or is parked inside Acquire, and the main
// thread does every Release, so the waiter set, and with it every pick,
// is fixed by the script rather than by the thread schedule.
class ScriptedScheduler {
 public:
  explicit ScriptedScheduler(const std::vector<int64_t>& weights)
      : scheduler_(/*capacity=*/1, /*deadline_boost_margin=*/0),
        join_(weights.size(), false) {
    for (const int64_t weight : weights) {
      scheduler_.Register(weight, /*deadline_steps=*/0);
    }
    for (size_t t = 0; t < weights.size(); ++t) {
      threads_.emplace_back([this, t] { TenantLoop(static_cast<int64_t>(t)); });
    }
  }
  ScriptedScheduler(const ScriptedScheduler&) = delete;
  ScriptedScheduler& operator=(const ScriptedScheduler&) = delete;
  ~ScriptedScheduler() {
    // Parked tenants are still inside Acquire: hand the slot on until each
    // has been served, then stop every thread.
    while (parked_ > 0) Release(0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  // Tenant `t` enters Acquire; true when it took the free slot at once.
  bool Join(int64_t t) {
    const int64_t waits = scheduler_.stats(t).waits;
    {
      std::lock_guard<std::mutex> lock(mu_);
      join_[static_cast<size_t>(t)] = true;
    }
    cv_.notify_all();
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!granted_.empty() && granted_.back() == t) {
          granted_.clear();
          return true;
        }
      }
      if (scheduler_.stats(t).waits > waits) {
        ++parked_;
        return false;
      }
      std::this_thread::yield();
    }
  }

  // The slot holder `t` releases; returns the parked tenant the slot went
  // to, or -1 when none was parked.
  int64_t Release(int64_t t) {
    scheduler_.Release(t);
    if (parked_ == 0) return -1;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !granted_.empty(); });
    const int64_t next = granted_.back();
    granted_.clear();
    --parked_;
    return next;
  }

  SchedulerStats stats(int64_t t) const { return scheduler_.stats(t); }

 private:
  void TenantLoop(int64_t t) {
    const size_t index = static_cast<size_t>(t);
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || join_[index]; });
        if (stop_) return;
        join_[index] = false;
      }
      CROWDMAX_CHECK(scheduler_.Acquire(t).ok());
      {
        std::lock_guard<std::mutex> lock(mu_);
        granted_.push_back(t);
      }
      cv_.notify_all();
    }
  }

  FairShareScheduler scheduler_;
  std::mutex mu_;  // Guards join_, granted_ and stop_.
  std::condition_variable cv_;
  std::vector<bool> join_;
  std::vector<int64_t> granted_;
  bool stop_ = false;
  int64_t parked_ = 0;  // Main thread only.
  std::vector<std::thread> threads_;
};

// The starvation bound of the file comment of query/service.h: a ready
// tenant waits at most sum_o ceil(w_o / w_t) + T grants to others, with T
// the tenants that can wait.
int64_t StarvationBound(const std::vector<int64_t>& weights, size_t t) {
  int64_t bound = static_cast<int64_t>(weights.size());
  for (size_t o = 0; o < weights.size(); ++o) {
    if (o != t) bound += (weights[o] + weights[t] - 1) / weights[t];
  }
  return bound;
}

TEST(FairShareSchedulerTest, TenantThatRanAheadIsServedWithinTheBound) {
  // Tenant 0 takes 40 grants while the others are idle, then joins behind
  // eleven waiters (tenants 1..11; tenant 12 holds the slot). Every
  // released tenant rejoins at once, so the queue never drains.
  const std::vector<int64_t> weights(13, 1);
  ScriptedScheduler script(weights);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(script.Join(0));
    EXPECT_EQ(script.Release(0), -1);
  }
  int64_t holder = 12;
  ASSERT_TRUE(script.Join(holder));
  for (int64_t t = 1; t <= 11; ++t) ASSERT_FALSE(script.Join(t));
  ASSERT_FALSE(script.Join(0));
  int64_t grants = 0;
  while (holder != 0) {
    const int64_t next = script.Release(holder);
    ASSERT_GE(next, 0);
    ASSERT_FALSE(script.Join(holder));
    holder = next;
    ASSERT_LE(++grants, 1000) << "tenant 0 never served";
  }
  EXPECT_LE(script.stats(0).max_grants_behind, StarvationBound(weights, 0));
}

TEST(FairShareSchedulerTest, ScriptedWeightedOrdersKeepTheBound) {
  // A seeded script over mixed weights: the holder releases and rejoins
  // or goes idle, idle tenants join at random, and now and then one tenant
  // runs alone for a while. Every tenant's wait stays within its bound.
  const std::vector<int64_t> weights = {1, 2, 3, 1, 4, 2};
  ScriptedScheduler script(weights);
  Rng rng(2024);
  std::vector<bool> idle(weights.size(), true);
  int64_t holder = -1;
  for (int step = 0; step < 400; ++step) {
    if (holder < 0) {
      const int64_t t = static_cast<int64_t>(rng.NextBounded(weights.size()));
      // Nobody waits while the slot is free: a lone run of grants.
      const int64_t run = 1 + static_cast<int64_t>(rng.NextBounded(6));
      for (int64_t i = 0; i < run; ++i) {
        ASSERT_TRUE(script.Join(t));
        ASSERT_EQ(script.Release(t), -1);
      }
      ASSERT_TRUE(script.Join(t));
      idle[static_cast<size_t>(t)] = false;
      holder = t;
    }
    for (size_t t = 0; t < weights.size(); ++t) {
      if (idle[t] && rng.NextBounded(3) == 0) {
        ASSERT_FALSE(script.Join(static_cast<int64_t>(t)));
        idle[t] = false;
      }
    }
    const int64_t released = holder;
    holder = script.Release(released);
    if (rng.NextBounded(2) == 0 && holder >= 0) {
      ASSERT_FALSE(script.Join(released));
    } else {
      idle[static_cast<size_t>(released)] = true;
    }
  }
  for (size_t t = 0; t < weights.size(); ++t) {
    EXPECT_LE(script.stats(static_cast<int64_t>(t)).max_grants_behind,
              StarvationBound(weights, t))
        << "tenant " << t;
  }
}

// Service-level fault/stress property: across many tenants on the faulty
// platform, the one merged MetricsAuditor reconciles — per-cell
// dispatched = answered + no_quorum + dropped, per-class dispatch equals
// the summed paid counters, and the combined platform fault tallies match
// the trace outcomes. Plus the replay smoke: the same specs replayed on a
// fresh service reproduce every outcome and the merged summary.
TEST(QueryServiceTest, FaultyPlatformRunReconcilesAndReplays) {
  const Instance shard_a = MakeInstance(40, 21);
  const Instance shard_b = MakeInstance(30, 22);
  QueryServiceOptions options;
  options.shards = {{&shard_a, 0.0, 0.0}, {&shard_b, 0.0, 0.0}};
  options.threads = 4;
  options.capacity = 2;
  options.collect_traces = true;
  options.use_platform = true;
  options.platform_workers = 30;
  options.naive_votes = 3;
  options.expert_votes = 5;
  options.fault.abandon_probability = 0.05;
  options.fault.straggler_probability = 0.03;
  options.fault.churn_probability = 0.01;
  options.fault.min_quorum = 2;
  options.resilient.max_retries = 3;
  options.resilient.min_votes = 1;

  std::vector<QuerySpec> specs;
  for (int64_t i = 0; i < 8; ++i) {
    QuerySpec spec;
    spec.tenant = "faulty" + std::to_string(i);
    spec.shard = i % 2;
    spec.kind = i % 3 == 2 ? QueryKind::kTopK : QueryKind::kMax;
    spec.u_n = 2;
    spec.k = 2;
    spec.seed = 9000 + static_cast<uint64_t>(i) * 101;
    specs.push_back(spec);
  }

  Result<QueryService> service = QueryService::Create(options);
  ASSERT_TRUE(service.ok());
  Result<ServiceRunResult> first = service->Run(specs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  const Status audit = AuditServiceRun(*first);
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  int64_t faults_seen = 0;
  for (const QueryOutcome& outcome : first->outcomes) {
    EXPECT_TRUE(outcome.admitted);
    faults_seen +=
        outcome.platform_dropped_tasks + outcome.platform_no_quorum_tasks;
  }
  EXPECT_GT(faults_seen, 0) << "fault injection produced no faults";
  EXPECT_EQ(first->report.dropped_tasks + first->report.no_quorum_tasks,
            faults_seen);

  // Replay smoke: one seed set, two runs, identical everything.
  Result<ServiceRunResult> second = service->Run(specs);
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectOutcomesIdentical(first->outcomes[i], second->outcomes[i],
                            "replay spec=" + std::to_string(i));
  }
  EXPECT_EQ(first->merged_trace->Summary(), second->merged_trace->Summary());
}

// Cross-query cache sharing: two tenants on the same shard that opt in
// share within-class pair evidence — the second query answers pairs from
// the cache (cache_hits > 0, less paid work) and the audit still
// reconciles, i.e. cache hits were never double-billed as dispatch.
TEST(QueryServiceTest, SameShardSharingTenantsReuseEvidence) {
  const Instance shard = MakeInstance(70, 31);
  QueryServiceOptions options;
  options.shards = {{&shard, shard.DeltaForU(3), shard.DeltaForU(1)}};
  options.collect_traces = true;

  QuerySpec first;
  first.kind = QueryKind::kMax;
  first.u_n = 3;
  first.seed = 42;
  first.share_cache = true;
  QuerySpec second = first;  // Same query again: maximal pair overlap.

  Result<QueryService> service = QueryService::Create(options);
  ASSERT_TRUE(service.ok());
  Result<ServiceRunResult> run = service->Run({first, second});
  ASSERT_TRUE(run.ok());
  const QueryOutcome& a = run->outcomes[0];
  const QueryOutcome& b = run->outcomes[1];
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());

  EXPECT_GT(b.cache_hits, 0);
  EXPECT_LT(b.paid.naive + b.paid.expert, a.paid.naive + a.paid.expert);
  EXPECT_EQ(a.best, b.best);  // Shared evidence is consistent per pair.

  const Status audit = AuditServiceRun(*run);
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // The first sharer saw an empty cache, so it must equal the standalone
  // run of the same spec exactly.
  Result<QueryOutcome> alone = QueryService::ExecuteAlone(options, first);
  ASSERT_TRUE(alone.ok());
  ExpectOutcomesIdentical(*alone, a, "first sharer vs alone");
}

// Distinct shards never cross-contaminate: a sharing tenant that is alone
// on its shard behaves exactly as if no cache existed, even when another
// shard's sharing tenants run in the same service call.
TEST(QueryServiceTest, DistinctShardsNeverShareEvidence) {
  const Instance shard_a = MakeInstance(70, 41);
  const Instance shard_b = MakeInstance(70, 43);
  QueryServiceOptions options;
  options.shards = {{&shard_a, shard_a.DeltaForU(3), shard_a.DeltaForU(1)},
                    {&shard_b, shard_b.DeltaForU(3), shard_b.DeltaForU(1)}};
  options.collect_traces = true;
  options.threads = 2;

  QuerySpec on_a;
  on_a.kind = QueryKind::kMax;
  on_a.u_n = 3;
  on_a.seed = 42;
  on_a.shard = 0;
  on_a.share_cache = true;
  QuerySpec on_b = on_a;
  on_b.shard = 1;

  Result<QueryService> service = QueryService::Create(options);
  ASSERT_TRUE(service.ok());
  Result<ServiceRunResult> run = service->Run({on_a, on_b});
  ASSERT_TRUE(run.ok());

  for (size_t i = 0; i < 2; ++i) {
    const QueryOutcome& outcome = run->outcomes[i];
    ASSERT_TRUE(outcome.status.ok());
    // Alone on its shard's cache the query must be bit-identical to the
    // standalone run (which uses no shared cache at all): identical paid
    // counters and cache hits prove the other shard's evidence never
    // reached it. (Hits are nonzero either way — 2-MaxFind memoizes
    // within a query — which is why the comparison, not a zero check, is
    // the isolation proof.)
    Result<QueryOutcome> alone = QueryService::ExecuteAlone(
        options, i == 0 ? on_a : on_b);
    ASSERT_TRUE(alone.ok());
    ExpectOutcomesIdentical(*alone, outcome,
                            "shard " + std::to_string(i) + " isolation");
  }
}

// The pipelined filter path (pipeline_depth > 1) stays inside the
// determinism contract: concurrent results equal ExecuteAlone with the
// same options.
// Every engine round waits out the crowd round trip the simulated platform
// banked for it, ABOVE's panel and escalation rounds included.
TEST(QueryServiceTest, PlatformAboveWaitsOutItsRoundTrips) {
  const Instance shard = MakeInstance(200, 3);
  QueryServiceOptions options;
  options.shards = {{&shard, shard.DeltaForU(4), shard.DeltaForU(1)}};
  options.use_platform = true;
  options.latency.base_micros = 1000;
  options.latency.jitter_micros = 200;

  QuerySpec spec;
  spec.kind = QueryKind::kAbove;
  spec.anchor = 100;
  spec.above.votes_per_item = 3;
  spec.seed = 17;
  Result<QueryOutcome> outcome = QueryService::ExecuteAlone(options, spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->status.ok()) << outcome->status.ToString();
  EXPECT_EQ(outcome->above.size() + outcome->below.size(), 199u);
  EXPECT_GE(outcome->naive_steps, 1);
  EXPECT_GE(outcome->latency_micros,
            options.latency.base_micros *
                (outcome->naive_steps + outcome->expert_steps));
}

TEST(QueryServiceTest, PipelinedDepthKeepsEquivalence) {
  const Instance shard = MakeInstance(64, 51);
  QueryServiceOptions options;
  options.shards = {{&shard, shard.DeltaForU(3), shard.DeltaForU(1)}};
  options.collect_traces = true;
  options.pipeline_depth = 4;
  options.threads = 4;

  std::vector<QuerySpec> specs;
  for (int64_t i = 0; i < 6; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kMax;
    spec.u_n = 3;
    spec.seed = 600 + static_cast<uint64_t>(i);
    specs.push_back(spec);
  }

  Result<QueryService> service = QueryService::Create(options);
  ASSERT_TRUE(service.ok());
  Result<ServiceRunResult> run = service->Run(specs);
  ASSERT_TRUE(run.ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    Result<QueryOutcome> alone =
        QueryService::ExecuteAlone(options, specs[i]);
    ASSERT_TRUE(alone.ok());
    ExpectOutcomesIdentical(*alone, run->outcomes[i],
                            "pipelined spec=" + std::to_string(i));
  }
}

// The hard combination of the robustness milestone: a mid-run deadline
// abort inside the pipelined drive (depth > 1, rounds still in flight at
// the abort) on a faulty platform. The aborted query must come back with a
// typed kDeadlineExceeded — never a hang, never a silent partial — and
// the merged service accounting must still reconcile against the platform
// transcripts, i.e. the in-flight rounds the abort discarded were still
// billed exactly once.
TEST(QueryServiceTest, PipelinedDeadlineAbortOnFaultyPlatformReconciles) {
  const Instance shard = MakeInstance(48, 61);
  QueryServiceOptions options;
  options.shards = {{&shard, 0.0, 0.0}};
  options.threads = 4;
  options.capacity = 2;
  options.collect_traces = true;
  options.pipeline_depth = 3;
  options.use_platform = true;
  options.platform_workers = 30;
  options.naive_votes = 3;
  options.expert_votes = 5;
  options.fault.abandon_probability = 0.05;
  options.fault.min_quorum = 2;
  options.resilient.max_retries = 2;

  std::vector<QuerySpec> specs;
  for (int64_t i = 0; i < 4; ++i) {
    QuerySpec spec;
    spec.tenant = "dl" + std::to_string(i);
    spec.kind = QueryKind::kMax;
    spec.u_n = 2;
    spec.seed = 7000 + static_cast<uint64_t>(i) * 13;
    // Tenants 1 and 3 get a deadline the two-phase plan cannot meet; the
    // others run to completion around the aborts.
    if (i % 2 == 1) spec.deadline_steps = 2;
    specs.push_back(spec);
  }

  Result<QueryService> service = QueryService::Create(options);
  ASSERT_TRUE(service.ok());
  Result<ServiceRunResult> run = service->Run(specs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  int64_t aborted = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const QueryOutcome& outcome = run->outcomes[i];
    EXPECT_TRUE(outcome.admitted);
    if (specs[i].deadline_steps > 0) {
      EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
          << "spec " << i << ": " << outcome.status.ToString();
      ++aborted;
    } else {
      EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    }
  }
  ASSERT_EQ(aborted, 2);
  // Mid-run aborts of admitted queries, not admission-time rejections.
  EXPECT_EQ(run->report.aborted_deadline, 2);
  EXPECT_EQ(run->report.rejected_deadline, 0);

  const Status audit = AuditServiceRun(*run);
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // Determinism survives the abort: aborted queries replay bit-identically
  // alone, in-flight discards included.
  for (size_t i = 0; i < specs.size(); ++i) {
    Result<QueryOutcome> alone = QueryService::ExecuteAlone(options, specs[i]);
    ASSERT_TRUE(alone.ok());
    ExpectOutcomesIdentical(*alone, run->outcomes[i],
                            "deadline spec=" + std::to_string(i));
  }
}

}  // namespace
}  // namespace crowdmax
