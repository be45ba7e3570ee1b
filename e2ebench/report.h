// Result reporting of the end-to-end benchmark: named metric values, the
// run context printed next to them, the correctness gate's violation list,
// and the one-line JSON result that ends standard output.

#ifndef CROWDMAX_E2EBENCH_REPORT_H_
#define CROWDMAX_E2EBENCH_REPORT_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// The percentile the benchmark reports as a timing's tail: the highest
/// of p99, p95, p90, p75 and p50 that has at least 10 samples beyond it.
/// Over several windows, the percentile is taken in each window (with at
/// least 10 samples beyond it in each) and the median is reported, so a
/// stall of the machine moves one window, not the result.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  int64_t samples = 0;
  /// Samples beyond the percentile, in each window.
  int64_t beyond = 0;
  int64_t windows = 1;
};

/// Nearest-rank percentile `p` (0..100) of `sorted` (ascending); 0 when
/// empty.
double Percentile(const std::vector<double>& sorted, double p);

/// Median of unsorted values; 0 when empty.
double Median(std::vector<double> values);

/// Tail percentile of values in time order, taken over `windows`
/// consecutive windows of equal size.
Tail TailOf(const std::vector<double>& values, int64_t windows = 1);

/// "p99.0 of 12007 queries (30 beyond in each of 4 windows)".
std::string Describe(const Tail& tail);

/// `value` with `digits` decimals.
std::string Fixed(double value, int digits);

/// Concatenates the stream renderings of `parts`.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Collects everything one run prints.
class Report {
 public:
  void Metric(const std::string& name, double value);
  void Context(const std::string& key, const std::string& value);
  /// Records one correctness violation; any violation fails the run.
  void Violation(const std::string& what);
  void CountCheck(int64_t n = 1) { checks_ += n; }

  void SetAttempted(int64_t attempted, int64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  bool correct() const { return violations_.empty(); }

  /// Human-readable context and violations, then the JSON result as the
  /// last line.
  void Print(std::ostream& out) const;

 private:
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::string> violations_;
  int64_t violation_count_ = 0;
  int64_t checks_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Seconds elapsed on the steady clock since an arbitrary process epoch.
double NowSeconds();

/// SplitMix64 step: the benchmark's only source of input randomness, so
/// inputs depend on nothing but the workload seed.
uint64_t Mix(uint64_t x);

}  // namespace e2e

#endif  // CROWDMAX_E2EBENCH_REPORT_H_
