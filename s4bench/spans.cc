#include "spans.h"

#include <cstdio>
#include <unordered_map>

namespace s4bench {

int64_t SpanLog::Record(std::string name, int64_t parent, int64_t request,
                        double start, double end) {
  Span s;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.request = request;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, std::vector<double>> SpanLog::SelfSeconds() const {
  std::unordered_map<int64_t, double> child_time;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.seconds();
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    auto it = child_time.find(s.id);
    out[s.name].push_back(s.seconds() -
                          (it == child_time.end() ? 0.0 : it->second));
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<long long>(s.request),
                 (s.start - origin) * 1e6, s.seconds() * 1e6,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace s4bench
