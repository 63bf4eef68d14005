#ifndef S4BENCH_UTIL_H_
#define S4BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace s4bench {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exact quantile of raw samples: linear interpolation between the two
// nearest order statistics (Hyndman-Fan type 7). 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Peak resident set of this process, in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Outcome of one benchmark run: what the last stdout line reports.
struct RunReport {
  struct Ops {
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Ops> ops;   // the same, per kind of operation
  std::vector<std::string> errors;  // failed output checks
  std::vector<Metric> metrics;

  // Counts one operation of `kind` ("search", "write").
  void Count(const std::string& kind, bool ok) {
    Ops& o = ops[kind];
    ++attempted;
    ++o.attempted;
    if (!ok) {
      ++failed;
      ++o.failed;
    }
  }
  // Folds in another report's counts and failed checks.
  void Merge(RunReport other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& [kind, o] : other.ops) {
      ops[kind].attempted += o.attempted;
      ops[kind].failed += o.failed;
    }
    for (std::string& e : other.errors) errors.push_back(std::move(e));
  }

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string what) { errors.push_back(std::move(what)); }
  bool correct() const { return errors.empty(); }
};

}  // namespace s4bench

#endif  // S4BENCH_UTIL_H_
