// In-memory spans of the traced run, written out as Chrome trace-event
// JSON (Perfetto and chrome://tracing open it) when the run ends.
//
// The benchmark records spans only from its own code, around calls into
// the library: one span per query, and one per layer call (vote
// generation, comparator fork, queue wait, QueryService::Run). Each span
// has a start, an end and a parent; all spans of one query share its id.

#ifndef CROWDMAX_E2EBENCH_SPANS_H_
#define CROWDMAX_E2EBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  int64_t id = 0;
  /// Id of the enclosing span; -1 for a query's root span.
  int64_t parent = -1;
  /// The query every span of one query shares.
  int64_t query = -1;
  /// Static label (never freed).
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  /// Small per-thread index (the trace viewer's track).
  int thread = 0;
  /// Optional payload shown in the viewer (votes of a call, microseconds
  /// of execution reported by the service); -1 when absent.
  int64_t value = -1;
};

/// Thread-safe span sink. Ids come from an atomic counter; Record takes a
/// mutex, which is cheap next to the calls it times (a vote batch or a
/// whole query).
class SpanRecorder {
 public:
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  size_t size() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A small index for the calling thread, stable for its lifetime.
int ThreadIndex();

}  // namespace e2e

#endif  // CROWDMAX_E2EBENCH_SPANS_H_
