#include "obs/search_counters.h"

#include <cstdio>
#include <string_view>
#include <type_traits>

#include "obs/metrics.h"

namespace s4::obs {
namespace {

constexpr std::string_view kSecondsSuffix = "_seconds";

#define S4_CHECK_ROW(type, name, ...)                                  \
  static_assert(!std::is_same_v<type, double> ||                       \
                    std::string_view(#name).ends_with(kSecondsSuffix), \
                #name " is a duration row and must be named *_seconds");
S4_SEARCH_COUNTERS(S4_CHECK_ROW)
#undef S4_CHECK_ROW

// Seconds rows publish into histograms, count rows into counters.
template <typename T>
using MetricFor =
    std::conditional_t<std::is_same_v<T, double>, Histogram, Counter>;

template <typename T>
MetricFor<T>* Resolve(MetricsRegistry& reg, const char* name) {
  if (name == nullptr) return nullptr;
  if constexpr (std::is_same_v<T, double>) {
    return &reg.GetHistogram(name);
  } else {
    return &reg.GetCounter(name);
  }
}

void Publish(Histogram* h, double seconds) {
  if (h != nullptr) h->Observe(seconds);
}
void Publish(Counter* c, int64_t v) {
  if (c != nullptr) c->Add(v);
}

void AppendJsonMember(std::string* out, std::string_view name,
                      double seconds) {
  name.remove_suffix(kSecondsSuffix.size());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "_ms\":%.3f", 1e3 * seconds);
  *out += '"';
  *out += name;
  *out += buf;
}
template <typename Int>
void AppendJsonMember(std::string* out, std::string_view name, Int v) {
  *out += '"';
  *out += name;
  *out += "\":";
  *out += std::to_string(v);
}

}  // namespace

void PublishSearch(const SearchCounters& c) {
  // Metric references are resolved once and cached (the registry never
  // moves them).
  struct Metrics {
    Counter* searches;
#define S4_METRIC(type, name, ...) MetricFor<type>* name;
    S4_SEARCH_COUNTERS(S4_METRIC)
#undef S4_METRIC
  };
  static const Metrics m = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    Metrics r;
    r.searches = &reg.GetCounter("s4_searches_total");
#define S4_RESOLVE(type, name, merge, registry, ...) \
  r.name = Resolve<type>(reg, registry);
    S4_SEARCH_COUNTERS(S4_RESOLVE)
#undef S4_RESOLVE
    return r;
  }();
  m.searches->Increment();
#define S4_PUBLISH(type, name, ...) Publish(m.name, c.name);
  S4_SEARCH_COUNTERS(S4_PUBLISH)
#undef S4_PUBLISH
}

void AppendCountersJson(const SearchCounters& c, std::string* out) {
  const char* sep = "";
#define S4_JSON(type, name, ...) \
  *out += sep;                   \
  sep = ",";                     \
  AppendJsonMember(out, #name, c.name);
  S4_SEARCH_COUNTERS(S4_JSON)
#undef S4_JSON
}

}  // namespace s4::obs
