// Span-style structured trace of the algorithm hierarchy, plus the
// accounting auditor that reconciles it against the library's tallies.
//
// The paper's cost claim C(n) = x_e*c_e + x_n*c_n (Section 3.4) is only as
// good as the comparison counts behind it, and after the parallel engine
// (sharded counters) and the fault/recovery stack (retries, quorum,
// injected losses) those counts flow through four independent tallies:
// ComparisonStats, the platform vote/step counters, PlatformFaultStats and
// the per-executor ResetCounters snapshots. AlgoTrace is the single source
// of truth they reconcile against: a deterministic record of the run
//
//   run → phase (filter/expert) → round → group/batch → retry-attempt
//
// in which every comparison instance lands in exactly one
// (phase, round, worker-class, disposition) cell.
//
// Determinism contract (mirrors the PR 1 seeding discipline): all trace
// mutation happens on the coordinating thread — algorithms open spans and
// record round deltas at round barriers, batch executors record cells in
// their public wrappers (which run on the submitting thread), and worker
// threads never touch the trace. Traces of the same seeded run therefore
// replay bit-identically across thread counts.
//
// Exactly-once cell attribution: the innermost executor that actually buys
// crowd work records the dispatched/outcome cells (BatchExecutor wrappers,
// see BatchExecutor::RecordsTraceCells); decorators record only what they
// terminate themselves (injected drops, fallback degradations); algorithms
// record cache hits and, on the serial comparator path, per-round counter
// deltas. Tracing is off unless a trace is installed with ScopedTrace, and
// instrumentation sites check one pointer — legacy runs are untouched.

#ifndef CROWDMAX_CORE_TRACE_H_
#define CROWDMAX_CORE_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cost.h"

namespace crowdmax {

/// Worker class a trace cell bills to (the paper's two-class model). Named
/// distinctly from baselines::WorkerClass to keep the core layer free of
/// baseline dependencies.
enum class TraceWorkerClass { kNaive, kExpert };

/// Stable name ("naive", "expert") for reports.
const char* TraceWorkerClassName(TraceWorkerClass worker_class);

/// Level of a span in the run hierarchy.
enum class TraceSpanKind { kRun, kPhase, kRound, kBatch, kAttempt };

/// Stable name ("run", "phase", "round", "batch", "attempt").
const char* TraceSpanKindName(TraceSpanKind kind);

/// One span of the hierarchy. Ordering is by deterministic sequence
/// numbers, not wall clock: begin_seq/end_seq are positions in the single
/// coordinating-thread event stream.
struct TraceSpan {
  int64_t id = -1;
  int64_t parent = -1;
  TraceSpanKind kind = TraceSpanKind::kRun;
  std::string label;
  /// Worker class billed while this span is the innermost phase (phase
  /// spans only).
  TraceWorkerClass worker_class = TraceWorkerClass::kNaive;
  /// Round number (round spans only; -1 otherwise).
  int64_t round = -1;
  int64_t begin_seq = -1;
  int64_t end_seq = -1;
};

/// Cell coordinates: the innermost open phase and round when the counts
/// were recorded. Comparisons recorded outside any phase/round land in
/// ("", -1, kNaive).
struct TraceCellKey {
  std::string phase;
  int64_t round = -1;
  TraceWorkerClass worker_class = TraceWorkerClass::kNaive;

  bool operator<(const TraceCellKey& other) const;
  bool operator==(const TraceCellKey& other) const;
};

/// Per-cell comparison accounting. The disposition counts partition
/// `dispatched`: dispatched = answered + no_quorum + dropped. Cache hits,
/// degraded resolutions and retry re-issues are informational — cache hits
/// never reached the crowd, degraded tasks were resolved by a fallback
/// policy without crowd work, and retries double-book instances already
/// present in `dispatched` (they count how many were re-buys).
struct TraceCellCounts {
  /// Comparison instances bought from the crowd (per attempt; a task
  /// retried twice is dispatched twice).
  int64_t dispatched = 0;
  /// Instances that came back authoritatively answered.
  int64_t answered = 0;
  /// Instances that came back with a provisional below-quorum majority.
  int64_t no_quorum = 0;
  /// Instances that came back with no counted answer at all.
  int64_t dropped = 0;
  /// Queries answered from a memo/pair cache (no crowd work).
  int64_t cache_hits = 0;
  /// Tasks resolved by a fallback tie-break (no crowd work).
  int64_t degraded = 0;
  /// Instances within `dispatched` that were retry re-issues.
  int64_t retries = 0;

  TraceCellCounts& operator+=(const TraceCellCounts& other);
};

/// The deterministic structured trace of one run. Not thread-safe: all
/// methods must be called from the coordinating thread (see the file
/// comment for why that suffices).
class AlgoTrace {
 public:
  AlgoTrace() = default;

  /// Opens a span under the innermost open span; returns its id.
  int64_t BeginSpan(TraceSpanKind kind, std::string label);
  /// Opens a phase span; cells recorded inside bill to `worker_class`.
  int64_t BeginPhase(std::string label, TraceWorkerClass worker_class);
  /// Opens a round span with the given round number.
  int64_t BeginRound(int64_t round);
  /// Closes `id`, which must be the innermost open span (strict nesting).
  void EndSpan(int64_t id);

  /// Record into the current cell (innermost phase/round context).
  void RecordDispatched(int64_t n);
  void RecordOutcomes(int64_t answered, int64_t no_quorum, int64_t dropped);
  void RecordCacheHits(int64_t n);
  /// A comparator backend's cell: `paid` comparisons dispatched and all
  /// answered, and the `issued - paid` remainder served by the memo.
  void RecordAnsweredCell(int64_t paid, int64_t issued);
  void RecordDegraded(int64_t n);
  void RecordRetries(int64_t n);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::map<TraceCellKey, TraceCellCounts>& cells() const {
    return cells_;
  }

  /// Sum of all cells billed to `worker_class` / of every cell.
  TraceCellCounts TotalsFor(TraceWorkerClass worker_class) const;
  TraceCellCounts Totals() const;

  /// Deterministic multi-line rendering (spans in id order, cells in key
  /// order); two traces are equal iff their summaries are equal.
  std::string Summary() const;

  /// {"spans": [...], "cells": [...]} with deterministic ordering.
  void WriteJson(std::ostream& out) const;

  /// Drops all spans and cells (for reuse across runs).
  void Clear();

 private:
  TraceCellCounts* CurrentCell();

  std::vector<TraceSpan> spans_;
  std::vector<int64_t> open_stack_;
  std::map<TraceCellKey, TraceCellCounts> cells_;
  // Memoized current-cell context; rebuilt when the span stack changes.
  TraceCellCounts* current_cell_ = nullptr;
  int64_t next_seq_ = 0;
};

/// The installed trace of the calling thread, or nullptr when tracing is
/// off (the default). The pointer is thread-local: a run's coordinating
/// thread sees the trace it installed, and worker threads (which never
/// mutate traces by contract) see their own — normally null — slot, so
/// concurrent runs on different threads trace independently.
AlgoTrace* CurrentTrace();

/// RAII installation of a trace as the calling thread's current trace.
/// Install/uninstall from the run's coordinating thread only; nesting
/// restores the previous trace on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(AlgoTrace* trace);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  AlgoTrace* previous_;
};

/// RAII span: begins on construction, ends on destruction. No-op when no
/// trace is installed.
class TraceSpanScope {
 public:
  TraceSpanScope(TraceSpanKind kind, std::string label);
  /// Phase span overload.
  TraceSpanScope(std::string phase_label, TraceWorkerClass worker_class);
  /// Round span overload.
  explicit TraceSpanScope(int64_t round);
  ~TraceSpanScope();
  TraceSpanScope(const TraceSpanScope&) = delete;
  TraceSpanScope& operator=(const TraceSpanScope&) = delete;

 private:
  AlgoTrace* trace_;
  int64_t id_ = -1;
};

/// End-of-run reconciliation of the trace against the independent tallies.
/// Always checks the internal identity
///
///   dispatched = answered + no_quorum + dropped   (per cell)
///
/// — the single-source-of-truth accounting invariant (DESIGN.md §9):
/// answered + dropped + no-quorum = dispatched — plus every expectation
/// added before Check(). Expectations
/// compare a caller-supplied tally (executor counters, ComparisonStats,
/// platform counters, PlatformFaultStats fields) against the trace-derived
/// number; Check() returns OK when everything matches, or an Internal
/// status listing every mismatch.
class MetricsAuditor {
 public:
  explicit MetricsAuditor(const AlgoTrace* trace);

  /// Executor/comparator comparisons billed to `worker_class` must equal
  /// that class's trace-dispatched total.
  void ExpectDispatched(TraceWorkerClass worker_class, int64_t comparisons);
  /// As above, summed over classes (e.g. the platform transcript's task
  /// count, or a shared platform's vote-batch total).
  void ExpectDispatchedTotal(int64_t comparisons);
  /// Executor comparisons billed to `worker_class` where `cancelled` of
  /// them were speculative rounds cancelled before dispatch (DESIGN.md
  /// §15): cancelled work never lands in a trace cell, so the executor's
  /// counter must equal trace-dispatched plus the cancelled tally.
  void ExpectDispatchedWithCancelled(TraceWorkerClass worker_class,
                                     int64_t comparisons, int64_t cancelled);
  /// A result's paid ComparisonStats must match per-class dispatch.
  void ExpectPaidStats(const ComparisonStats& paid);
  /// Fault tallies (e.g. PlatformFaultStats::dropped_tasks /
  /// no_quorum_tasks, or injector counters) must match the trace's
  /// dropped / no-quorum outcome totals.
  void ExpectTaskFaults(int64_t dropped, int64_t no_quorum);
  /// Cache-hit totals (issued - paid) must match the trace.
  void ExpectCacheHits(TraceWorkerClass worker_class, int64_t hits);

  /// Runs all checks; OK or Internal with one line per mismatch.
  Status Check() const;

 private:
  void Expect(std::string what, int64_t expected, int64_t actual);

  struct Expectation {
    std::string what;
    int64_t expected = 0;
    int64_t actual = 0;
  };

  const AlgoTrace* trace_;
  std::vector<Expectation> expectations_;
};

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_TRACE_H_
