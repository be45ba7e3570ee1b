#include "core/trace.h"

#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace crowdmax {

namespace {

// The current trace of *this thread*. Each run's coordinating thread
// installs its own trace with ScopedTrace and performs every trace
// mutation itself (worker threads never touch the trace), so the pointer
// is thread-local: single-threaded programs behave exactly as with the
// old process-wide pointer, while a multi-tenant service (query/service.h)
// can drive one traced query per pool thread with no cross-talk.
thread_local AlgoTrace* g_current_trace = nullptr;

}  // namespace

const char* TraceWorkerClassName(TraceWorkerClass worker_class) {
  switch (worker_class) {
    case TraceWorkerClass::kNaive:
      return "naive";
    case TraceWorkerClass::kExpert:
      return "expert";
  }
  return "unknown";
}

const char* TraceSpanKindName(TraceSpanKind kind) {
  switch (kind) {
    case TraceSpanKind::kRun:
      return "run";
    case TraceSpanKind::kPhase:
      return "phase";
    case TraceSpanKind::kRound:
      return "round";
    case TraceSpanKind::kBatch:
      return "batch";
    case TraceSpanKind::kAttempt:
      return "attempt";
  }
  return "unknown";
}

bool TraceCellKey::operator<(const TraceCellKey& other) const {
  return std::tie(phase, round, worker_class) <
         std::tie(other.phase, other.round, other.worker_class);
}

bool TraceCellKey::operator==(const TraceCellKey& other) const {
  return phase == other.phase && round == other.round &&
         worker_class == other.worker_class;
}

TraceCellCounts& TraceCellCounts::operator+=(const TraceCellCounts& other) {
  dispatched += other.dispatched;
  answered += other.answered;
  no_quorum += other.no_quorum;
  dropped += other.dropped;
  cache_hits += other.cache_hits;
  degraded += other.degraded;
  retries += other.retries;
  return *this;
}

int64_t AlgoTrace::BeginSpan(TraceSpanKind kind, std::string label) {
  TraceSpan span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.kind = kind;
  span.label = std::move(label);
  span.begin_seq = next_seq_++;
  spans_.push_back(std::move(span));
  open_stack_.push_back(spans_.back().id);
  current_cell_ = nullptr;
  return spans_.back().id;
}

int64_t AlgoTrace::BeginPhase(std::string label,
                              TraceWorkerClass worker_class) {
  const int64_t id = BeginSpan(TraceSpanKind::kPhase, std::move(label));
  spans_[static_cast<size_t>(id)].worker_class = worker_class;
  return id;
}

int64_t AlgoTrace::BeginRound(int64_t round) {
  const int64_t id =
      BeginSpan(TraceSpanKind::kRound, std::to_string(round));
  spans_[static_cast<size_t>(id)].round = round;
  return id;
}

void AlgoTrace::EndSpan(int64_t id) {
  CROWDMAX_CHECK(!open_stack_.empty() && open_stack_.back() == id);
  spans_[static_cast<size_t>(id)].end_seq = next_seq_++;
  open_stack_.pop_back();
  current_cell_ = nullptr;
}

TraceCellCounts* AlgoTrace::CurrentCell() {
  if (current_cell_ != nullptr) return current_cell_;
  TraceCellKey key;
  // Innermost open phase sets (phase label, class); innermost open round
  // sets the round number.
  for (auto it = open_stack_.rbegin(); it != open_stack_.rend(); ++it) {
    const TraceSpan& span = spans_[static_cast<size_t>(*it)];
    if (span.kind == TraceSpanKind::kRound && key.round < 0) {
      key.round = span.round;
    }
    if (span.kind == TraceSpanKind::kPhase) {
      key.phase = span.label;
      key.worker_class = span.worker_class;
      break;
    }
  }
  current_cell_ = &cells_[key];
  return current_cell_;
}

void AlgoTrace::RecordDispatched(int64_t n) { CurrentCell()->dispatched += n; }

void AlgoTrace::RecordOutcomes(int64_t answered, int64_t no_quorum,
                               int64_t dropped) {
  TraceCellCounts* cell = CurrentCell();
  cell->answered += answered;
  cell->no_quorum += no_quorum;
  cell->dropped += dropped;
}

void AlgoTrace::RecordCacheHits(int64_t n) { CurrentCell()->cache_hits += n; }

void AlgoTrace::RecordAnsweredCell(int64_t paid, int64_t issued) {
  RecordDispatched(paid);
  RecordOutcomes(paid, 0, 0);
  if (issued > paid) RecordCacheHits(issued - paid);
}

void AlgoTrace::RecordDegraded(int64_t n) { CurrentCell()->degraded += n; }

void AlgoTrace::RecordRetries(int64_t n) { CurrentCell()->retries += n; }

TraceCellCounts AlgoTrace::TotalsFor(TraceWorkerClass worker_class) const {
  TraceCellCounts totals;
  for (const auto& [key, counts] : cells_) {
    if (key.worker_class == worker_class) totals += counts;
  }
  return totals;
}

TraceCellCounts AlgoTrace::Totals() const {
  TraceCellCounts totals;
  for (const auto& [key, counts] : cells_) totals += counts;
  return totals;
}

std::string AlgoTrace::Summary() const {
  std::ostringstream out;
  for (const TraceSpan& span : spans_) {
    out << "span " << span.id << " parent=" << span.parent << ' '
        << TraceSpanKindName(span.kind) << '(' << span.label << ')'
        << " seq=[" << span.begin_seq << ',' << span.end_seq << "]\n";
  }
  for (const auto& [key, counts] : cells_) {
    out << "cell phase=" << (key.phase.empty() ? "-" : key.phase)
        << " round=" << key.round << " class="
        << TraceWorkerClassName(key.worker_class)
        << " dispatched=" << counts.dispatched
        << " answered=" << counts.answered
        << " no_quorum=" << counts.no_quorum
        << " dropped=" << counts.dropped
        << " cache_hits=" << counts.cache_hits
        << " degraded=" << counts.degraded << " retries=" << counts.retries
        << '\n';
  }
  return out.str();
}

void AlgoTrace::WriteJson(std::ostream& out) const {
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    out << (i ? ", " : "") << "{\"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"kind\": \""
        << TraceSpanKindName(span.kind) << "\", \"label\": \"" << span.label
        << "\", \"begin\": " << span.begin_seq
        << ", \"end\": " << span.end_seq << '}';
  }
  out << "], \"cells\": [";
  bool first = true;
  for (const auto& [key, counts] : cells_) {
    out << (first ? "" : ", ") << "{\"phase\": \"" << key.phase
        << "\", \"round\": " << key.round << ", \"class\": \""
        << TraceWorkerClassName(key.worker_class)
        << "\", \"dispatched\": " << counts.dispatched
        << ", \"answered\": " << counts.answered
        << ", \"no_quorum\": " << counts.no_quorum
        << ", \"dropped\": " << counts.dropped
        << ", \"cache_hits\": " << counts.cache_hits
        << ", \"degraded\": " << counts.degraded
        << ", \"retries\": " << counts.retries << '}';
    first = false;
  }
  out << "]}";
}

void AlgoTrace::Clear() {
  CROWDMAX_CHECK(open_stack_.empty());
  spans_.clear();
  cells_.clear();
  current_cell_ = nullptr;
  next_seq_ = 0;
}

AlgoTrace* CurrentTrace() { return g_current_trace; }

ScopedTrace::ScopedTrace(AlgoTrace* trace) : previous_(g_current_trace) {
  g_current_trace = trace;
}

ScopedTrace::~ScopedTrace() { g_current_trace = previous_; }

TraceSpanScope::TraceSpanScope(TraceSpanKind kind, std::string label)
    : trace_(CurrentTrace()) {
  if (trace_ != nullptr) id_ = trace_->BeginSpan(kind, std::move(label));
}

TraceSpanScope::TraceSpanScope(std::string phase_label,
                               TraceWorkerClass worker_class)
    : trace_(CurrentTrace()) {
  if (trace_ != nullptr) {
    id_ = trace_->BeginPhase(std::move(phase_label), worker_class);
  }
}

TraceSpanScope::TraceSpanScope(int64_t round) : trace_(CurrentTrace()) {
  if (trace_ != nullptr) id_ = trace_->BeginRound(round);
}

TraceSpanScope::~TraceSpanScope() {
  if (trace_ != nullptr && id_ >= 0) trace_->EndSpan(id_);
}

MetricsAuditor::MetricsAuditor(const AlgoTrace* trace) : trace_(trace) {
  CROWDMAX_CHECK(trace != nullptr);
}

void MetricsAuditor::Expect(std::string what, int64_t expected,
                            int64_t actual) {
  expectations_.push_back({std::move(what), expected, actual});
}

void MetricsAuditor::ExpectDispatched(TraceWorkerClass worker_class,
                                      int64_t comparisons) {
  Expect(std::string("dispatched[") + TraceWorkerClassName(worker_class) +
             "] vs tally",
         comparisons, trace_->TotalsFor(worker_class).dispatched);
}

void MetricsAuditor::ExpectDispatchedTotal(int64_t comparisons) {
  Expect("dispatched[total] vs tally", comparisons,
         trace_->Totals().dispatched);
}

void MetricsAuditor::ExpectDispatchedWithCancelled(
    TraceWorkerClass worker_class, int64_t comparisons, int64_t cancelled) {
  Expect(std::string("dispatched[") + TraceWorkerClassName(worker_class) +
             "]+cancelled vs tally",
         comparisons, trace_->TotalsFor(worker_class).dispatched + cancelled);
}

void MetricsAuditor::ExpectPaidStats(const ComparisonStats& paid) {
  Expect("paid.naive vs dispatched[naive]", paid.naive,
         trace_->TotalsFor(TraceWorkerClass::kNaive).dispatched);
  Expect("paid.expert vs dispatched[expert]", paid.expert,
         trace_->TotalsFor(TraceWorkerClass::kExpert).dispatched);
}

void MetricsAuditor::ExpectTaskFaults(int64_t dropped, int64_t no_quorum) {
  const TraceCellCounts totals = trace_->Totals();
  Expect("fault tally dropped vs trace", dropped, totals.dropped);
  Expect("fault tally no_quorum vs trace", no_quorum, totals.no_quorum);
}

void MetricsAuditor::ExpectCacheHits(TraceWorkerClass worker_class,
                                     int64_t hits) {
  Expect(std::string("cache_hits[") + TraceWorkerClassName(worker_class) +
             "] vs tally",
         hits, trace_->TotalsFor(worker_class).cache_hits);
}

Status MetricsAuditor::Check() const {
  std::string mismatches;
  for (const auto& [key, counts] : trace_->cells()) {
    const int64_t outcomes =
        counts.answered + counts.no_quorum + counts.dropped;
    if (counts.dispatched != outcomes) {
      mismatches += "cell(phase=" + key.phase +
                    ", round=" + std::to_string(key.round) + ", class=" +
                    TraceWorkerClassName(key.worker_class) +
                    "): dispatched=" + std::to_string(counts.dispatched) +
                    " != answered+no_quorum+dropped=" +
                    std::to_string(outcomes) + "; ";
    }
  }
  for (const Expectation& expectation : expectations_) {
    if (expectation.expected != expectation.actual) {
      mismatches += expectation.what + ": expected " +
                    std::to_string(expectation.expected) + ", trace has " +
                    std::to_string(expectation.actual) + "; ";
    }
  }
  if (mismatches.empty()) return Status::OK();
  return Status::Internal("metrics audit failed: " + mismatches);
}

}  // namespace crowdmax
