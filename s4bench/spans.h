#ifndef S4BENCH_SPANS_H_
#define S4BENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace s4bench {

// One timed call into a layer, recorded by the benchmark around the
// public function it calls.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // spans of one request share it
  std::string name;
  double start = 0.0;   // steady-clock seconds
  double end = 0.0;
  double seconds() const { return end - start; }
};

// In-memory span log of a traced run, written out when the run ends.
//
// The benchmark cannot open spans inside the program, so the calls of
// one request are made one after another, each through a lower layer,
// on the same cache state; a span's parent is the layer that would wrap
// it. A layer's self time is its span minus the time its child spans
// cover, i.e. the layer's own cost.
class SpanLog {
 public:
  int64_t Record(std::string name, int64_t parent, int64_t request,
                 double start, double end);

  // Times `fn()` as a span and returns (span id, fn's result).
  template <typename Fn>
  auto Time(std::string name, int64_t parent, int64_t request, Fn&& fn) {
    const double start = Now();
    auto result = fn();
    const int64_t id = Record(std::move(name), parent, request, start, Now());
    return std::make_pair(id, std::move(result));
  }

  // Duration of span `id` (seconds).
  double Seconds(int64_t id) const {
    return spans_[static_cast<size_t>(id - 1)].seconds();
  }

  // Self time of every span (seconds), grouped by span name.
  std::map<std::string, std::vector<double>> SelfSeconds() const;

  // Writes the spans as a Chrome trace (JSON, "X" events). Returns false
  // when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

}  // namespace s4bench

#endif  // S4BENCH_SPANS_H_
