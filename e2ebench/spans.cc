#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace e2e {

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code error;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, error);
  std::ofstream out(path);
  if (!out) return false;
  double origin = 0.0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_s < b.start_s;
                              })
                 ->start_s;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"span\": %lld, \"parent\": %lld, "
                  "\"query\": %lld, \"value\": %lld}}%s\n",
                  s.name, (s.start_s - origin) * 1e6,
                  (s.end_s - s.start_s) * 1e6, s.thread,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.query),
                  static_cast<long long>(s.value),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace e2e
