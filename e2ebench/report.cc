#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace e2e {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const double rank = std::ceil(p / 100.0 * n);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

Tail TailOf(const std::vector<double>& values, int64_t windows) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  tail.windows = std::max<int64_t>(1, std::min(windows, tail.samples));
  const int64_t smallest = tail.samples / tail.windows;
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    tail.percentile = p;
    tail.beyond = smallest - static_cast<int64_t>(std::ceil(
                                 p / 100.0 * static_cast<double>(smallest)));
    if (tail.beyond >= 10) break;
  }
  std::vector<double> per_window;
  for (int64_t w = 0; w < tail.windows; ++w) {
    std::vector<double> window(
        values.begin() + w * tail.samples / tail.windows,
        values.begin() + (w + 1) * tail.samples / tail.windows);
    std::sort(window.begin(), window.end());
    per_window.push_back(Percentile(window, tail.percentile));
  }
  tail.value = Median(per_window);
  return tail;
}

std::string Describe(const Tail& tail) {
  return Cat("p", Fixed(tail.percentile, 1), " of ", tail.samples,
             " queries (", tail.beyond, " beyond in each of ", tail.windows,
             tail.windows == 1 ? " window)" : " windows, median reported)");
}

std::string Fixed(double value, int digits) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*f", digits, value);
  return text;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void Report::Metric(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    Violation("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.emplace_back(name, value);
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::Violation(const std::string& what) {
  ++violation_count_;
  if (violations_.size() < 50) violations_.push_back(what);
}

void Report::Print(std::ostream& out) const {
  for (const auto& [key, value] : context_) {
    out << "context  " << key << " = " << value << "\n";
  }
  out << "check    " << checks_ << " checks, " << violation_count_
      << " violations\n";
  for (const std::string& v : violations_) out << "VIOLATION " << v << "\n";

  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(number, sizeof(number), "%.17g", metrics_[i].second);
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].first
        << "\": " << number;
  }
  out << "}}" << std::endl;
}

}  // namespace e2e
