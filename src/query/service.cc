#include "query/service.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/above.h"
#include "core/async_executor.h"
#include "core/expert_max.h"
#include "core/topk.h"
#include "core/resilient.h"
#include "core/worker_model.h"

namespace crowdmax {

namespace {

// Stride scale: large enough that kStrideScale / weight keeps distinct
// weights distinct, small enough that passes never overflow in practice.
constexpr uint64_t kStrideScale = 1ULL << 20;

Counter* ServiceCounter(const char* name) {
  return MetricsRegistry::Default()->GetCounter(name);
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kMax:
      return "max";
    case QueryKind::kTopK:
      return "topk";
    case QueryKind::kAbove:
      return "above";
  }
  return "unknown";
}

// ------------------------------------------------------- FairShareScheduler.

FairShareScheduler::FairShareScheduler(int64_t capacity,
                                       int64_t deadline_boost_margin)
    : capacity_(std::max<int64_t>(1, capacity)),
      boost_margin_(std::max<int64_t>(0, deadline_boost_margin)) {}

int64_t FairShareScheduler::Register(int64_t weight, int64_t deadline_steps,
                                     int64_t kill_after_steps) {
  CROWDMAX_CHECK(weight >= 1);
  Tenant tenant;
  tenant.weight = weight;
  tenant.deadline_steps = std::max<int64_t>(0, deadline_steps);
  tenant.kill_after_steps = std::max<int64_t>(0, kill_after_steps);
  tenant.stride = kStrideScale / static_cast<uint64_t>(weight);
  if (tenant.stride == 0) tenant.stride = 1;
  tenants_.push_back(tenant);
  return static_cast<int64_t>(tenants_.size()) - 1;
}

int64_t FairShareScheduler::PickNext() const {
  // Deadline boost first: among urgent waiters, smallest remaining wins.
  int64_t urgent = -1;
  int64_t urgent_remaining = 0;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    if (!t.waiting || t.deadline_steps <= 0) continue;
    const int64_t remaining = t.deadline_steps - t.stats.grants;
    if (remaining > boost_margin_) continue;
    if (urgent < 0 || remaining < urgent_remaining) {
      urgent = static_cast<int64_t>(i);
      urgent_remaining = remaining;
    }
  }
  if (urgent >= 0) return urgent;

  // Stride order: the waiting tenant with the smallest pass (ties go to
  // the lowest id, so the pick is deterministic given the waiter set).
  int64_t best = -1;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    if (!t.waiting) continue;
    if (best < 0 || t.pass < tenants_[static_cast<size_t>(best)].pass) {
      best = static_cast<int64_t>(i);
    }
  }
  return best;
}

Status FairShareScheduler::Acquire(int64_t tenant) {
  std::unique_lock<std::mutex> lock(mu_);
  CROWDMAX_CHECK(tenant >= 0 &&
                 tenant < static_cast<int64_t>(tenants_.size()));
  Tenant& t = tenants_[static_cast<size_t>(tenant)];
  // Deterministic deadline enforcement: the decision depends only on this
  // tenant's own grant count (its batch submissions so far), never on the
  // other tenants' schedule.
  if (t.deadline_steps > 0 && t.stats.grants >= t.deadline_steps) {
    return Status::DeadlineExceeded(
        "tenant " + std::to_string(tenant) + " spent its deadline of " +
        std::to_string(t.deadline_steps) + " batch steps");
  }
  // Chaos kill switch: same per-tenant determinism as the deadline, but a
  // distinct code — the query was deliberately crashed at a clean
  // submission boundary and can be recovered by re-execution (its stack is
  // hermetically seeded) or by checkpoint resume.
  if (t.kill_after_steps > 0 && t.stats.grants >= t.kill_after_steps) {
    return Status::Aborted("chaos kill switch fired for tenant " +
                           std::to_string(tenant) + " after " +
                           std::to_string(t.kill_after_steps) +
                           " batch steps")
        .WithRetryAfter(1);
  }

  // Joining the queue: bring the pass to within one stride of the
  // waiters' floor. Lifting it keeps a long-idle tenant from banking
  // credit and monopolizing the slots once it wakes; lowering it keeps a
  // tenant that ran ahead while the others were idle from waiting for
  // them all to catch up, which would break the starvation bound.
  uint64_t floor = 0;
  bool any = false;
  for (const Tenant& other : tenants_) {
    if (!other.waiting) continue;
    if (!any || other.pass < floor) floor = other.pass;
    any = true;
  }
  if (any) t.pass = std::clamp(t.pass, floor, floor + t.stride);
  t.waiting = true;
  t.grants_at_wait_start = total_grants_;

  if (in_use_ >= capacity_ || PickNext() != tenant) {
    ++t.stats.waits;
    cv_.wait(lock,
             [&] { return in_use_ < capacity_ && PickNext() == tenant; });
  }

  t.waiting = false;
  const int64_t behind = total_grants_ - t.grants_at_wait_start;
  t.stats.max_grants_behind = std::max(t.stats.max_grants_behind, behind);
  ++t.stats.grants;
  ++total_grants_;
  t.pass += t.stride;
  ++in_use_;
  // The pick order changed; other waiters re-evaluate their predicates.
  cv_.notify_all();
  return Status::OK();
}

void FairShareScheduler::Release(int64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  CROWDMAX_CHECK(tenant >= 0 &&
                 tenant < static_cast<int64_t>(tenants_.size()));
  CROWDMAX_CHECK(in_use_ > 0);
  --in_use_;
  cv_.notify_all();
}

SchedulerStats FairShareScheduler::stats(int64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  CROWDMAX_CHECK(tenant >= 0 &&
                 tenant < static_cast<int64_t>(tenants_.size()));
  return tenants_[static_cast<size_t>(tenant)].stats;
}

// --------------------------------------------------- ScheduledBatchExecutor.

ScheduledBatchExecutor::ScheduledBatchExecutor(BatchExecutor* inner,
                                               FairShareScheduler* scheduler,
                                               int64_t tenant)
    : inner_(inner), scheduler_(scheduler), tenant_(tenant) {
  CROWDMAX_CHECK(inner != nullptr);
  CROWDMAX_CHECK(scheduler != nullptr);
}

Result<std::vector<BatchTaskResult>> ScheduledBatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  if (tasks.empty()) return inner_->TryExecuteBatch(tasks);
  Status acquired = scheduler_->Acquire(tenant_);
  if (!acquired.ok()) return acquired;
  Result<std::vector<BatchTaskResult>> result =
      inner_->TryExecuteBatch(tasks);
  scheduler_->Release(tenant_);
  return result;
}

// ------------------------------------------------------------ QueryService.

uint64_t QueryService::StreamSeed(uint64_t root, uint64_t stream) {
  // SplitMix64 over root + stream: adjacent roots and streams land in
  // unrelated parts of the sequence, so tenant stacks never share draws.
  uint64_t z = root + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

QueryService::QueryService(const QueryServiceOptions& options)
    : options_(options) {}

Result<QueryService> QueryService::Create(const QueryServiceOptions& options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("service needs at least one shard");
  }
  for (const ServiceShard& shard : options.shards) {
    if (shard.instance == nullptr || shard.instance->empty()) {
      return Status::InvalidArgument(
          "every shard needs a non-empty instance");
    }
    if (shard.delta_naive < 0.0 || shard.delta_expert < 0.0) {
      return Status::InvalidArgument("shard deltas must be >= 0");
    }
  }
  if (options.threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  if (options.capacity < 1) {
    return Status::InvalidArgument("capacity must be >= 1");
  }
  if (options.pipeline_depth < 1) {
    return Status::InvalidArgument("pipeline_depth must be >= 1");
  }
  if (options.use_platform) {
    if (options.naive_votes < 1 || options.expert_votes < 1) {
      return Status::InvalidArgument("vote counts must be >= 1");
    }
    if (options.platform_workers <
        std::max(options.naive_votes, options.expert_votes)) {
      return Status::InvalidArgument(
          "platform_workers must cover the largest vote count");
    }
  }
  return QueryService(options);
}

namespace {

// Admission decision for one spec: a typed rejection status, or OK plus
// the plan (kMax) that execution will follow.
struct Admission {
  Status status;
  MaxQueryPlan plan;
};

Admission AdmitSpec(const QueryServiceOptions& options,
                    const QuerySpec& spec) {
  Admission admission;
  if (spec.shard < 0 ||
      spec.shard >= static_cast<int64_t>(options.shards.size())) {
    admission.status = Status::InvalidArgument("shard index out of range");
    return admission;
  }
  const Instance* instance =
      options.shards[static_cast<size_t>(spec.shard)].instance;
  const int64_t n = instance->size();
  if (spec.weight < 1) {
    admission.status = Status::InvalidArgument("weight must be >= 1");
    return admission;
  }
  if (spec.budget < 0.0 || spec.max_comparisons < 0 ||
      spec.deadline_steps < 0) {
    admission.status =
        Status::InvalidArgument("budget/deadline fields must be >= 0");
    return admission;
  }
  if (!spec.prices.Valid()) {
    admission.status = Status::InvalidArgument("invalid prices");
    return admission;
  }

  // Predicted cost of the chosen strategy, and the structural minimum of
  // batch steps the query cannot run below.
  double predicted_cost = 0.0;
  int64_t min_steps = 1;
  switch (spec.kind) {
    case QueryKind::kMax: {
      PlannerInput input;
      input.n = n;
      input.u_n = spec.u_n;
      input.prices = spec.prices;
      input.allow_naive_accuracy = spec.allow_naive_accuracy;
      Result<MaxQueryPlan> plan = PlanMaxQuery(input);
      if (!plan.ok()) {
        admission.status = plan.status();
        return admission;
      }
      admission.plan = *plan;
      predicted_cost = plan->predicted_cost;
      // A two-phase run that actually filters needs a naive batch and an
      // expert batch.
      min_steps = (plan->strategy == MaxStrategy::kTwoPhase &&
                   n > 2 * spec.u_n - 1)
                      ? 2
                      : 1;
      break;
    }
    case QueryKind::kTopK: {
      if (spec.k < 1 || spec.k > n) {
        admission.status = Status::InvalidArgument("k must be in [1, n]");
        return admission;
      }
      if (spec.u_n < 1) {
        admission.status = Status::InvalidArgument("u_n must be >= 1");
        return admission;
      }
      const int64_t u_prime = spec.u_n + spec.k - 1;
      const int64_t candidates = std::min<int64_t>(2 * u_prime - 1, n);
      predicted_cost =
          PredictFilterComparisons(n, u_prime, /*worst_case=*/false) *
              spec.prices.naive_cost +
          0.5 * static_cast<double>(candidates) *
              static_cast<double>(candidates - 1) * spec.prices.expert_cost;
      min_steps = n > 2 * u_prime - 1 ? 2 : 1;
      break;
    }
    case QueryKind::kAbove: {
      if (spec.anchor < 0 || spec.anchor >= n) {
        admission.status =
            Status::InvalidArgument("anchor must be an element of the shard");
      } else if (spec.above.votes_per_item < 1 ||
                 spec.above.votes_per_item % 2 == 0) {
        admission.status =
            Status::InvalidArgument("votes_per_item must be odd and >= 1");
      }
      if (!admission.status.ok()) return admission;
      predicted_cost = static_cast<double>(n - 1) *
                       static_cast<double>(spec.above.votes_per_item) *
                       spec.prices.naive_cost;
      min_steps = 1;
      break;
    }
  }

  if (spec.budget > 0.0 && predicted_cost > spec.budget) {
    admission.status = Status::ResourceExhausted(
        "predicted cost " + std::to_string(predicted_cost) +
        " exceeds budget " + std::to_string(spec.budget));
    return admission;
  }
  if (spec.deadline_steps > 0 && spec.deadline_steps < min_steps) {
    admission.status = Status::DeadlineExceeded(
        "deadline of " + std::to_string(spec.deadline_steps) +
        " steps is below the structural minimum of " +
        std::to_string(min_steps));
    return admission;
  }
  admission.status = Status::OK();
  return admission;
}

// One tenant's hermetic execution stack. Every RNG stream inside is seeded
// from the spec's root seed, so the stack's behaviour depends only on the
// spec — the keystone of the service's determinism contract.
struct TenantStack {
  std::unique_ptr<Comparator> naive_model;
  std::unique_ptr<Comparator> expert_model;
  std::unique_ptr<Comparator> crowd_model;
  std::unique_ptr<CrowdPlatform> platform;
  // Innermost executors: record the trace cells, count true dispatch.
  std::unique_ptr<BatchExecutor> naive_inner;
  std::unique_ptr<BatchExecutor> expert_inner;
  std::unique_ptr<ScheduledBatchExecutor> naive_gate;
  std::unique_ptr<ScheduledBatchExecutor> expert_gate;
  std::unique_ptr<ResilientBatchExecutor> naive_resilient;
  std::unique_ptr<ResilientBatchExecutor> expert_resilient;
  // Outermost executors: what the engines drive.
  BatchExecutor* naive_top = nullptr;
  BatchExecutor* expert_top = nullptr;
  // Innermost aliases for counter reads.
  BatchExecutor* naive_bottom = nullptr;
  BatchExecutor* expert_bottom = nullptr;
};

Status BuildStack(const QueryServiceOptions& options, const QuerySpec& spec,
                  FairShareScheduler* scheduler, int64_t tenant,
                  TenantStack* stack) {
  const ServiceShard& shard =
      options.shards[static_cast<size_t>(spec.shard)];
  if (options.use_platform) {
    stack->crowd_model = std::make_unique<RelativeErrorComparator>(
        shard.instance, RelativeErrorComparator::Options{},
        QueryService::StreamSeed(spec.seed, 3));
    PlatformOptions popts;
    popts.num_workers = options.platform_workers;
    popts.spammer_fraction = options.spammer_fraction;
    popts.honest_slip_probability = options.honest_slip_probability;
    popts.gold_task_probability = 0.0;
    popts.seed = QueryService::StreamSeed(spec.seed, 4);
    popts.fault = options.fault;
    popts.fault.seed = QueryService::StreamSeed(spec.seed, 5);
    popts.latency = options.latency;
    popts.latency.seed = QueryService::StreamSeed(spec.seed, 6);
    Result<std::unique_ptr<CrowdPlatform>> platform = CrowdPlatform::Create(
        stack->crowd_model.get(), shard.instance, {}, popts);
    if (!platform.ok()) return platform.status();
    stack->platform = std::move(platform).value();

    Result<std::unique_ptr<PlatformBatchExecutor>> naive =
        PlatformBatchExecutor::Create(stack->platform.get(),
                                      options.naive_votes);
    if (!naive.ok()) return naive.status();
    Result<std::unique_ptr<PlatformBatchExecutor>> expert =
        PlatformBatchExecutor::Create(stack->platform.get(),
                                      options.expert_votes);
    if (!expert.ok()) return expert.status();
    stack->naive_inner = std::move(naive).value();
    stack->expert_inner = std::move(expert).value();
  } else {
    stack->naive_model = std::make_unique<ThresholdComparator>(
        shard.instance, ThresholdModel{shard.delta_naive, 0.0},
        QueryService::StreamSeed(spec.seed, 1));
    stack->expert_model = std::make_unique<ThresholdComparator>(
        shard.instance, ThresholdModel{shard.delta_expert, 0.0},
        QueryService::StreamSeed(spec.seed, 2));
    stack->naive_inner =
        std::make_unique<ComparatorBatchExecutor>(stack->naive_model.get());
    stack->expert_inner =
        std::make_unique<ComparatorBatchExecutor>(stack->expert_model.get());
  }
  stack->naive_bottom = stack->naive_inner.get();
  stack->expert_bottom = stack->expert_inner.get();

  // The gate sits directly above the innermost executor so that, under the
  // resilient layer, every retry attempt is a scheduled submission.
  stack->naive_gate = std::make_unique<ScheduledBatchExecutor>(
      stack->naive_inner.get(), scheduler, tenant);
  stack->expert_gate = std::make_unique<ScheduledBatchExecutor>(
      stack->expert_inner.get(), scheduler, tenant);
  stack->naive_top = stack->naive_gate.get();
  stack->expert_top = stack->expert_gate.get();

  if (options.use_platform) {
    Result<std::unique_ptr<ResilientBatchExecutor>> naive =
        ResilientBatchExecutor::Create(stack->naive_top, options.resilient);
    if (!naive.ok()) return naive.status();
    Result<std::unique_ptr<ResilientBatchExecutor>> expert =
        ResilientBatchExecutor::Create(stack->expert_top, options.resilient);
    if (!expert.ok()) return expert.status();
    stack->naive_resilient = std::move(naive).value();
    stack->expert_resilient = std::move(expert).value();
    stack->naive_top = stack->naive_resilient.get();
    stack->expert_top = stack->expert_resilient.get();
  }
  return Status::OK();
}

// Runs one admitted spec on its hermetic stack. `cache` is the shard's
// cross-query cache for sharing tenants, or nullptr.
void RunOneQuery(const QueryServiceOptions& options, const QuerySpec& spec,
                 const Admission& admission, FairShareScheduler* scheduler,
                 int64_t tenant, SharedPairCache* cache, QueryOutcome* out) {
  const auto started = std::chrono::steady_clock::now();
  out->admitted = true;
  out->plan = admission.plan;

  std::shared_ptr<AlgoTrace> trace;
  std::optional<ScopedTrace> scoped_trace;
  if (options.collect_traces) {
    trace = std::make_shared<AlgoTrace>();
    scoped_trace.emplace(trace.get());
  }

  TenantStack stack;
  Status built = BuildStack(options, spec, scheduler, tenant, &stack);
  if (!built.ok()) {
    out->status = built;
    return;
  }
  const Instance* instance =
      options.shards[static_cast<size_t>(spec.shard)].instance;

  Status status = Status::OK();
  switch (spec.kind) {
    case QueryKind::kMax: {
      const std::vector<ElementId> items = instance->AllElements();
      ExpertMaxOptions algo;
      algo.filter.u_n = spec.u_n;
      algo.filter.memoize = true;
      algo.filter.max_comparisons = spec.max_comparisons;
      algo.filter.pipeline_groups = options.pipeline_depth > 1;
      algo.shared_cache = cache;
      // pipeline_depth > 1 rides the two-phase plan's naive filter groups
      // on the crowd latency; every other phase stays synchronous.
      std::optional<AsyncBatchAdapter> async;
      Execution naive = stack.naive_top;
      if (admission.plan.strategy == MaxStrategy::kTwoPhase &&
          options.pipeline_depth > 1) {
        async.emplace(stack.naive_top);
        naive = Execution(&*async, options.pipeline_depth);
      }
      Result<ExpertMaxResult> result = RunMaxPlan(
          items, admission.plan.strategy, algo, naive, stack.expert_top);
      if (!result.ok()) {
        status = result.status();
        break;
      }
      out->best = result->best;
      out->issued = result->issued;
      out->stopped_by_budget = result->filter_stopped_by_budget;
      out->partial = result->partial;
      out->fault_status = result->fault_status;
      break;
    }
    case QueryKind::kTopK: {
      TopKOptions algo;
      algo.k = spec.k;
      algo.filter.u_n = spec.u_n;
      algo.filter.memoize = true;
      algo.filter.max_comparisons = spec.max_comparisons;
      algo.shared_cache = cache;
      Result<TopKResult> result = FindTopKWithExperts(
          instance->AllElements(), stack.naive_top, stack.expert_top, algo);
      if (!result.ok()) {
        status = result.status();
        break;
      }
      out->top = result->top;
      out->partial = result->partial;
      out->fault_status = result->fault_status;
      break;
    }
    case QueryKind::kAbove: {
      std::vector<ElementId> items;
      items.reserve(static_cast<size_t>(instance->size() - 1));
      for (ElementId e = 0; e < instance->size(); ++e) {
        if (e != spec.anchor) items.push_back(e);
      }
      Result<AboveResult> result = FindAbove(
          items, spec.anchor, spec.above, stack.naive_top, stack.expert_top);
      if (!result.ok()) {
        status = result.status();
        break;
      }
      out->above = std::move(result->above);
      out->below = std::move(result->below);
      out->escalated = std::move(result->escalated);
      out->partial = result->partial;
      break;
    }
  }
  out->status = status;

  // Spend and steps are read from the stack itself — the innermost
  // executors count true dispatch (what the trace cells record), the
  // outermost count caller-visible steps — so they are exact even for
  // queries aborted mid-run.
  out->paid.naive = stack.naive_bottom->comparisons();
  out->paid.expert = stack.expert_bottom->comparisons();
  if (out->issued.naive < out->paid.naive) {
    out->issued.naive = out->paid.naive;
  }
  if (out->issued.expert < out->paid.expert) {
    out->issued.expert = out->paid.expert;
  }
  out->cache_hits = (out->issued.naive - out->paid.naive) +
                    (out->issued.expert - out->paid.expert);
  out->cost = spec.prices.Cost(out->paid.naive, out->paid.expert);
  out->naive_steps = stack.naive_top->logical_steps();
  out->expert_steps = stack.expert_top->logical_steps();
  if (stack.platform != nullptr) {
    out->platform_dropped_tasks = stack.platform->fault_stats().dropped_tasks;
    out->platform_no_quorum_tasks =
        stack.platform->fault_stats().no_quorum_tasks;
  }
  out->scheduler = scheduler->stats(tenant);

  if (trace != nullptr) {
    scoped_trace.reset();
    out->trace_summary = trace->Summary();
    out->trace = std::move(trace);
  }
  out->latency_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - started)
                            .count();
}

// Replays one per-query trace into the merged service trace: a run span
// per query, each cell re-recorded under its original phase/round key.
// Replay happens in spec order on one thread, so the merged trace — spans
// and cells — is deterministic across thread counts.
void MergeTrace(AlgoTrace* merged, const std::string& label,
                const AlgoTrace& trace) {
  const int64_t query_span = merged->BeginSpan(TraceSpanKind::kRun, label);
  for (const auto& [key, counts] : trace.cells()) {
    int64_t phase_span = -1;
    int64_t round_span = -1;
    if (!key.phase.empty()) {
      phase_span = merged->BeginPhase(key.phase, key.worker_class);
    }
    if (key.round >= 0) round_span = merged->BeginRound(key.round);
    merged->RecordDispatched(counts.dispatched);
    merged->RecordOutcomes(counts.answered, counts.no_quorum, counts.dropped);
    merged->RecordCacheHits(counts.cache_hits);
    merged->RecordDegraded(counts.degraded);
    merged->RecordRetries(counts.retries);
    if (round_span >= 0) merged->EndSpan(round_span);
    if (phase_span >= 0) merged->EndSpan(phase_span);
  }
  merged->EndSpan(query_span);
}

}  // namespace

Result<ServiceRunResult> QueryService::Run(
    const std::vector<QuerySpec>& specs) {
  const int64_t count = static_cast<int64_t>(specs.size());
  ServiceRunResult run;
  run.outcomes.resize(specs.size());

  // Admission: serial, in spec order, before anything executes.
  std::vector<Admission> admissions(specs.size());
  for (int64_t i = 0; i < count; ++i) {
    admissions[static_cast<size_t>(i)] =
        AdmitSpec(options_, specs[static_cast<size_t>(i)]);
  }

  // Scheduler registration (admitted specs only) and execution units:
  // every query is its own unit, except that sharing queries of one shard
  // chain into a single unit and run sequentially in spec order, so the
  // shard cache observes a deterministic request sequence.
  FairShareScheduler scheduler(options_.capacity,
                               options_.deadline_boost_margin);
  std::vector<int64_t> tenant_of(specs.size(), -1);
  std::vector<std::vector<int64_t>> units;
  std::map<int64_t, size_t> sharing_unit_of_shard;
  std::map<int64_t, std::unique_ptr<SharedPairCache>> shard_caches;
  for (int64_t i = 0; i < count; ++i) {
    const QuerySpec& spec = specs[static_cast<size_t>(i)];
    if (!admissions[static_cast<size_t>(i)].status.ok()) continue;
    tenant_of[static_cast<size_t>(i)] = scheduler.Register(
        spec.weight, spec.deadline_steps, spec.kill_after_steps);
    if (spec.share_cache) {
      auto [it, inserted] =
          sharing_unit_of_shard.try_emplace(spec.shard, units.size());
      if (inserted) {
        units.emplace_back();
        shard_caches.try_emplace(spec.shard,
                                 std::make_unique<SharedPairCache>());
      }
      units[it->second].push_back(i);
    } else {
      units.push_back({i});
    }
  }

  ThreadPool pool(options_.threads);
  pool.ParallelFor(static_cast<int64_t>(units.size()), [&](int64_t u) {
    for (int64_t i : units[static_cast<size_t>(u)]) {
      const QuerySpec& spec = specs[static_cast<size_t>(i)];
      SharedPairCache* cache =
          spec.share_cache ? shard_caches.at(spec.shard).get() : nullptr;
      RunOneQuery(options_, spec, admissions[static_cast<size_t>(i)],
                  &scheduler, tenant_of[static_cast<size_t>(i)], cache,
                  &run.outcomes[static_cast<size_t>(i)]);
    }
  });

  // Merge — spec order, one thread: report tallies, merged trace, metrics.
  if (options_.collect_traces) {
    run.merged_trace = std::make_shared<AlgoTrace>();
  }
  ServiceReport& report = run.report;
  report.queries = count;
  for (int64_t i = 0; i < count; ++i) {
    const QuerySpec& spec = specs[static_cast<size_t>(i)];
    QueryOutcome& out = run.outcomes[static_cast<size_t>(i)];
    if (!admissions[static_cast<size_t>(i)].status.ok()) {
      out.status = admissions[static_cast<size_t>(i)].status;
      out.plan = admissions[static_cast<size_t>(i)].plan;
      switch (out.status.code()) {
        case StatusCode::kResourceExhausted:
          ++report.rejected_budget;
          break;
        case StatusCode::kDeadlineExceeded:
          ++report.rejected_deadline;
          break;
        default:
          ++report.rejected_invalid;
          break;
      }
      continue;
    }
    ++report.admitted;
    if (out.status.ok()) {
      ++report.completed;
    } else if (out.status.code() == StatusCode::kDeadlineExceeded) {
      ++report.aborted_deadline;
    } else if (out.status.code() == StatusCode::kAborted) {
      ++report.aborted_chaos;
    }
    if (out.partial) ++report.partial;
    report.paid += out.paid;
    report.spend += out.cost;
    report.cache_hits += out.cache_hits;
    report.logical_steps += out.naive_steps + out.expert_steps;
    report.scheduler_grants += out.scheduler.grants;
    report.scheduler_waits += out.scheduler.waits;
    report.max_grants_behind =
        std::max(report.max_grants_behind, out.scheduler.max_grants_behind);
    report.dropped_tasks += out.platform_dropped_tasks;
    report.no_quorum_tasks += out.platform_no_quorum_tasks;
    if (run.merged_trace != nullptr && out.trace != nullptr) {
      const std::string label =
          spec.tenant.empty() ? "query:" + std::to_string(i)
                              : "query:" + spec.tenant;
      MergeTrace(run.merged_trace.get(), label, *out.trace);
    }
  }

  ServiceCounter("crowdmax.service.queries")->Add(report.queries);
  ServiceCounter("crowdmax.service.admitted")->Add(report.admitted);
  ServiceCounter("crowdmax.service.rejected")
      ->Add(report.rejected_budget + report.rejected_deadline +
            report.rejected_invalid);
  ServiceCounter("crowdmax.service.deadline_aborts")
      ->Add(report.aborted_deadline);
  return run;
}

Result<QueryOutcome> QueryService::ExecuteAlone(
    const QueryServiceOptions& options, const QuerySpec& spec) {
  QueryServiceOptions alone = options;
  alone.threads = 1;
  Result<QueryService> service = Create(alone);
  if (!service.ok()) return service.status();
  QuerySpec solo = spec;
  solo.share_cache = false;
  Result<ServiceRunResult> run = service->Run({solo});
  if (!run.ok()) return run.status();
  return std::move(run->outcomes[0]);
}

Status AuditServiceRun(const ServiceRunResult& run) {
  if (run.merged_trace == nullptr) {
    return Status::FailedPrecondition(
        "AuditServiceRun needs collect_traces (no merged trace)");
  }
  MetricsAuditor auditor(run.merged_trace.get());
  int64_t naive = 0;
  int64_t expert = 0;
  int64_t dropped = 0;
  int64_t no_quorum = 0;
  for (const QueryOutcome& out : run.outcomes) {
    naive += out.paid.naive;
    expert += out.paid.expert;
    dropped += out.platform_dropped_tasks;
    no_quorum += out.platform_no_quorum_tasks;
  }
  auditor.ExpectDispatched(TraceWorkerClass::kNaive, naive);
  auditor.ExpectDispatched(TraceWorkerClass::kExpert, expert);
  auditor.ExpectDispatchedTotal(naive + expert);
  auditor.ExpectTaskFaults(dropped, no_quorum);
  return auditor.Check();
}

}  // namespace crowdmax
