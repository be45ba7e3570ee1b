// Multi-tenant crowd query service: many concurrent MAX / TOP-K / ABOVE
// queries multiplexed over one shared execution stack.
//
// The paper's algorithms answer one query; a deployment answers thousands
// at once, one per tenant/dataset shard, and the crowd platform's batch
// capacity — not CPU — is the bottleneck (cf. the LTFB idiom of shard-local
// runs with a global accounting barrier, and Braverman–Mao–Weinberg's
// round-complexity view of parallel noisy selection: rounds are the unit
// both of latency and of contention). QueryService owns the shared pieces:
// one ThreadPool driving queries, one FairShareScheduler arbitrating crowd
// batch slots, one SharedPairCache per shard for cross-query evidence
// reuse, and one merged trace + MetricsAuditor report per service run.
//
// Determinism contract (the property the test suite leans on). Every
// query's randomized state — worker models, platform, fault and latency
// streams — is private to the query and seeded from QuerySpec::seed alone
// (hermetic per-tenant stacks; see StreamSeed). The scheduler arbitrates
// only *when* a batch may submit, never what it contains, and a tenant's
// deadline is charged against its own grant count, never wall clock. Any
// scheduler interleaving is therefore result-neutral: per-query results,
// traces, paid/issued counters, budget stops and deadline aborts are
// bit-identical to running the same spec alone on the serial drive
// (ExecuteAlone) at any thread count. Wall-clock latency and the
// scheduler wait statistics are explicitly informational — they are the
// only fields allowed to vary between runs.
//
// Cross-query evidence sharing (QuerySpec::share_cache) keeps the contract
// by construction: queries that opt into a shard's SharedPairCache are
// chained into one execution unit and run sequentially in spec order, so
// the cache observes a deterministic request sequence. Queries that do not
// opt in never touch a shared cache and stay independent.
//
// Scheduler policy: stride-based weighted round-robin over the tenants
// currently waiting for a batch slot (capacity slots; each grant covers
// one batch submission). A waiting tenant with a deadline within
// deadline_boost_margin grants of expiry preempts the stride order
// (smallest remaining first). Without urgent tenants, a ready tenant of
// weight w_t waits at most sum_o ceil(w_o / w_t) + T grants to other
// tenants before being served (T = waiting tenants) — the starvation
// bound asserted by the test suite. Admission control rejects, with typed
// statuses, queries whose predicted cost exceeds their budget
// (kResourceExhausted) or whose structural minimum of batch steps already
// exceeds their deadline (kDeadlineExceeded); a deadline that expires
// mid-run aborts the query with kDeadlineExceeded at the next submission.

#ifndef CROWDMAX_QUERY_SERVICE_H_
#define CROWDMAX_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/above.h"
#include "core/batched.h"
#include "core/cost.h"
#include "core/instance.h"
#include "core/resilient.h"
#include "core/round_engine.h"
#include "core/trace.h"
#include "platform/platform.h"
#include "query/planner.h"

namespace crowdmax {

/// One dataset shard served by the service. The instance doubles as the
/// worker models' ground truth (and, in platform mode, as the gold truth).
/// Not owned; must outlive the service.
struct ServiceShard {
  const Instance* instance = nullptr;
  /// Naive-class threshold delta_n (comparator mode).
  double delta_naive = 0.0;
  /// Expert-class threshold delta_e (comparator mode).
  double delta_expert = 0.0;
};

/// Query type of a tenant's request.
enum class QueryKind { kMax, kTopK, kAbove };

/// Stable name ("max", "topk", "above") for reports.
const char* QueryKindName(QueryKind kind);

/// One tenant's query: what to compute, over which shard, under which
/// budget/deadline, from which seed.
struct QuerySpec {
  /// Tenant label for reports (not an identity: each spec is one tenant).
  std::string tenant;
  /// Index into QueryServiceOptions::shards.
  int64_t shard = 0;
  QueryKind kind = QueryKind::kMax;
  /// The paper's u_n estimate (kMax/kTopK).
  int64_t u_n = 1;
  /// kTopK: number of top elements.
  int64_t k = 1;
  /// kAbove: the anchor element (must be a valid element of the shard).
  ElementId anchor = -1;
  /// kAbove options (vote panel size, expert escalation).
  AboveQueryOptions above;
  /// kMax: admit the 2*delta_n-approximate naive-only plan.
  bool allow_naive_accuracy = false;
  /// Root seed of the tenant's hermetic stack (see StreamSeed).
  uint64_t seed = 1;
  /// Per-comparison prices used for planning and cost reporting.
  CostModel prices;
  /// Monetary budget; 0 = unlimited. Admission control rejects the query
  /// (kResourceExhausted) when the planner's predicted cost exceeds it.
  double budget = 0.0;
  /// Hard cap on paid naive-phase comparisons, enforced by the engine's
  /// budget gate at round boundaries (FilterOptions::max_comparisons);
  /// 0 = unlimited.
  int64_t max_comparisons = 0;
  /// Deadline in scheduler grants (batch submissions); 0 = none. Charged
  /// against this query's own submissions only, so enforcement is
  /// deterministic under any interleaving.
  int64_t deadline_steps = 0;
  /// Fair-share weight (>= 1): relative share of crowd batch slots.
  int64_t weight = 1;
  /// Opt into the shard's cross-query SharedPairCache. Sharing queries of
  /// one shard are chained sequentially in spec order (see file comment).
  bool share_cache = false;
  /// Chaos hook (query/supervisor.h): abort this query with a typed
  /// kAborted after this many scheduler grants (batch submissions),
  /// simulating a crash at a clean submission boundary. Enforced like the
  /// deadline — against the tenant's own grant count only, so the kill
  /// point is deterministic under any interleaving. 0 = never.
  int64_t kill_after_steps = 0;
};

/// Service configuration: the shards and the shared stack.
struct QueryServiceOptions {
  std::vector<ServiceShard> shards;
  /// Pool threads driving queries (>= 1). Results never depend on it.
  int64_t threads = 1;
  /// Concurrent crowd batch slots the scheduler hands out (>= 1).
  int64_t capacity = 4;
  /// Deadline boost: a waiting tenant within this many grants of its
  /// deadline preempts the stride order.
  int64_t deadline_boost_margin = 2;
  /// Collect a per-query AlgoTrace and build the merged service trace
  /// (ServiceRunResult::merged_trace) for the auditor.
  bool collect_traces = false;
  /// >1: kMax two-phase filters run on the pipelined engine with this
  /// max_in_flight (one engine round per disjoint group). Step accounting
  /// moves to per-group granularity; results are unchanged.
  int64_t pipeline_depth = 1;

  /// Simulated-platform execution: each query gets a private seeded
  /// CrowdPlatform (fault + latency models below) with naive_votes /
  /// expert_votes PlatformBatchExecutors wrapped in ResilientBatchExecutor.
  /// Off (default): direct ThresholdComparator execution per
  /// ServiceShard::delta_* — the paper's noise model, no faults.
  bool use_platform = false;
  int64_t platform_workers = 40;
  double spammer_fraction = 0.0;
  double honest_slip_probability = 0.0;
  int64_t naive_votes = 3;
  int64_t expert_votes = 7;
  /// Fault injection; per-tenant seeds are derived from the tenant seed
  /// (the `seed` fields here are ignored).
  FaultOptions fault;
  /// Latency simulation; per-tenant seeds derived likewise.
  LatencyOptions latency;
  /// Recovery policy of the per-tenant resilient layer (platform mode).
  ResilientOptions resilient;
};

/// Per-tenant scheduler statistics. Informational: *not* covered by the
/// determinism contract (waits depend on the thread schedule).
struct SchedulerStats {
  /// Batch slots granted to this tenant (== its batch submissions).
  int64_t grants = 0;
  /// Acquire calls that had to wait for a slot or for their turn.
  int64_t waits = 0;
  /// Maximum number of grants handed to other tenants between this
  /// tenant entering Acquire and being served (the starvation measure).
  int64_t max_grants_behind = 0;
};

/// Fair-share arbitration of crowd batch slots: stride-based weighted
/// round-robin with a deadline boost (see the file comment for the policy
/// and the starvation bound). Thread-safe; Acquire blocks.
class FairShareScheduler {
 public:
  FairShareScheduler(int64_t capacity, int64_t deadline_boost_margin);

  /// Adds a tenant with the given weight (>= 1), deadline (0 = none) and
  /// chaos kill point (0 = none); returns its id. Not thread-safe against
  /// Acquire/Release — register every tenant before scheduling starts.
  int64_t Register(int64_t weight, int64_t deadline_steps,
                   int64_t kill_after_steps = 0);

  /// Blocks until a batch slot is granted to `tenant`, or returns
  /// kDeadlineExceeded when the tenant's grant count has reached its
  /// deadline, or kAborted when its armed chaos kill point is reached (the
  /// slot is then not taken). Deterministic per tenant: both decisions
  /// depend only on the tenant's own grant count.
  Status Acquire(int64_t tenant);

  /// Returns the slot taken by the last successful Acquire of `tenant`.
  void Release(int64_t tenant);

  SchedulerStats stats(int64_t tenant) const;

 private:
  struct Tenant {
    int64_t weight = 1;
    int64_t deadline_steps = 0;
    int64_t kill_after_steps = 0;
    uint64_t pass = 0;    // Stride position; lower = next in line.
    uint64_t stride = 1;  // kStrideScale / weight.
    bool waiting = false;
    SchedulerStats stats;
    int64_t grants_at_wait_start = 0;  // Global grant count at wait entry.
  };

  /// The waiting tenant the next free slot belongs to, or -1. Caller
  /// holds mu_.
  int64_t PickNext() const;

  const int64_t capacity_;
  const int64_t boost_margin_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Tenant> tenants_;
  int64_t in_use_ = 0;
  int64_t total_grants_ = 0;
};

/// Decorator that routes every batch submission of one tenant through the
/// scheduler: Acquire before the inner executor runs, Release after. Sits
/// directly above the innermost real executor (below the resilient layer,
/// so every retry attempt is a scheduled submission). Records no trace
/// cells and forwards latency/fault accessors; the only result-visible
/// effect is the typed kDeadlineExceeded it returns when the tenant's
/// deadline expires, which aborts the engine drive. Does not own anything.
class ScheduledBatchExecutor : public BatchExecutor {
 public:
  ScheduledBatchExecutor(BatchExecutor* inner, FairShareScheduler* scheduler,
                         int64_t tenant);

  const FaultReport* fault_report() const override {
    return inner_->fault_report();
  }
  int64_t TakeSimulatedLatencyMicros() override {
    return inner_->TakeSimulatedLatencyMicros();
  }

 private:
  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override;
  /// The inner executor records the dispatched/outcome cells; the gate
  /// buys nothing itself.
  bool RecordsTraceCells() const override { return false; }

  BatchExecutor* inner_;
  FairShareScheduler* scheduler_;
  int64_t tenant_;
};

/// Everything one query produced. All fields except latency_micros and
/// `scheduler` are covered by the determinism contract.
struct QueryOutcome {
  /// OK, a typed admission rejection (kResourceExhausted /
  /// kDeadlineExceeded / kInvalidArgument, with admitted == false), or a
  /// typed runtime failure (kDeadlineExceeded mid-run, or a fault-stack
  /// error).
  Status status;
  bool admitted = false;

  /// kMax answer.
  ElementId best = -1;
  /// kTopK answer, in decreasing estimated-rank order.
  std::vector<ElementId> top;
  /// kAbove answer.
  std::vector<ElementId> above;
  std::vector<ElementId> below;
  std::vector<ElementId> escalated;
  /// kMax: the plan that was (or would have been) executed.
  MaxQueryPlan plan;

  /// Paid comparisons per class, read from the innermost executors — so
  /// they are filled (with the true spend) even for aborted queries.
  ComparisonStats paid;
  /// Issued comparisons (cache hits included) where the algorithm reports
  /// them (kMax); otherwise equal to paid.
  ComparisonStats issued;
  /// Monetary cost of `paid` under the spec's prices.
  double cost = 0.0;
  int64_t naive_steps = 0;
  int64_t expert_steps = 0;
  /// Pairs answered from caches: issued - paid.
  int64_t cache_hits = 0;
  bool stopped_by_budget = false;
  /// Fault-stack degradation (partial results; see ExpertMaxResult).
  bool partial = false;
  Status fault_status;

  /// Platform-mode fault tallies of the tenant's private platform, for the
  /// merged audit.
  int64_t platform_dropped_tasks = 0;
  int64_t platform_no_quorum_tasks = 0;

  /// Scheduler view of this tenant (informational).
  SchedulerStats scheduler;
  /// Wall-clock execution time (informational).
  int64_t latency_micros = 0;

  /// The per-query trace (collect_traces only) and its deterministic
  /// rendering. The summary — not the pointer — is what equivalence tests
  /// compare.
  std::shared_ptr<AlgoTrace> trace;
  std::string trace_summary;
};

/// Aggregates of one service run, accumulated in spec order.
struct ServiceReport {
  int64_t queries = 0;
  int64_t admitted = 0;
  int64_t rejected_budget = 0;
  int64_t rejected_deadline = 0;
  int64_t rejected_invalid = 0;
  /// Admitted queries aborted mid-run by an expired deadline.
  int64_t aborted_deadline = 0;
  /// Admitted queries killed mid-run by an armed chaos kill switch
  /// (QuerySpec::kill_after_steps); recoverable by re-execution.
  int64_t aborted_chaos = 0;
  /// Admitted queries that finished with an OK status.
  int64_t completed = 0;
  /// Completed-or-aborted queries flagged partial by the fault stack.
  int64_t partial = 0;
  ComparisonStats paid;
  double spend = 0.0;
  int64_t cache_hits = 0;
  int64_t logical_steps = 0;
  int64_t scheduler_grants = 0;
  int64_t scheduler_waits = 0;
  int64_t max_grants_behind = 0;
  int64_t dropped_tasks = 0;
  int64_t no_quorum_tasks = 0;
};

/// Result of QueryService::Run: per-spec outcomes (aligned with the input)
/// plus the merged accounting.
struct ServiceRunResult {
  std::vector<QueryOutcome> outcomes;
  ServiceReport report;
  /// Merged service-level trace (collect_traces only): every per-query
  /// trace replayed, in spec order, into one trace — one run span per
  /// query, cells re-recorded under their original phase/round keys — so
  /// a single MetricsAuditor reconciles the whole service run. Its
  /// Summary() is deterministic across thread counts. Null when traces
  /// were off.
  std::shared_ptr<AlgoTrace> merged_trace;
};

/// Reconciles a service run's merged trace against the independent
/// tallies: the per-cell identity dispatched = answered + no_quorum +
/// dropped, per-class dispatched totals vs. the summed innermost-executor
/// counters (== summed paid stats), and the combined platform fault
/// tallies vs. the trace's dropped / no-quorum outcomes. Requires
/// collect_traces (FailedPrecondition otherwise).
Status AuditServiceRun(const ServiceRunResult& run);

/// The multi-tenant query service. Create once, Run any number of times;
/// each Run is an independent, deterministically replayable unit (shard
/// caches are per-Run, so runs do not leak evidence into each other).
class QueryService {
 public:
  /// Validates the options (shards present and non-null, threads/capacity
  /// >= 1, odd vote counts in platform mode).
  static Result<QueryService> Create(const QueryServiceOptions& options);

  /// Plans, admits and executes every spec. Admission is serial in spec
  /// order; admitted queries execute concurrently on the pool under the
  /// fair-share scheduler. Per-spec failures (rejections, aborts, fault
  /// exhaustion) land in the outcome's status; the call itself fails only
  /// on malformed service state.
  Result<ServiceRunResult> Run(const std::vector<QuerySpec>& specs);

  /// The serial-alone baseline of the determinism contract: runs one spec
  /// on a single-tenant service with the same options (threads = 1, full
  /// capacity, no cross-query cache). Bit-identical to the spec's outcome
  /// in any concurrent Run, except the informational fields.
  static Result<QueryOutcome> ExecuteAlone(const QueryServiceOptions& options,
                                           const QuerySpec& spec);

  /// Derives the seed of one of a tenant's private RNG streams from the
  /// tenant's root seed (SplitMix64-style). Stream ids: 1 naive worker,
  /// 2 expert worker, 3 crowd model, 4 platform, 5 fault, 6 latency.
  static uint64_t StreamSeed(uint64_t root, uint64_t stream);

  const QueryServiceOptions& options() const { return options_; }

 private:
  explicit QueryService(const QueryServiceOptions& options);

  QueryServiceOptions options_;
};

}  // namespace crowdmax

#endif  // CROWDMAX_QUERY_SERVICE_H_
