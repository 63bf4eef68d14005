// Benchmark entry point: runs one workload from a seed and prints, as the
// last line of standard output, one JSON object with the outcome:
//
//   s4bench --workload core_cold --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload, adds a traced sample, writes its span file and per-layer
// table under --out (default .bench_out) and reports the per-layer
// metrics. Exits 1 when an output check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/simd.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: s4bench --workload core_cold|served_rw|fleet_skew "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  s4bench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0) return Usage();

  s4bench::RunReport report;
  if (config.workload == "core_cold") {
    report = s4bench::RunCoreCold(config);
  } else if (config.workload == "served_rw") {
    report = s4bench::RunServedRw(config);
  } else if (config.workload == "fleet_skew") {
    report = s4bench::RunFleetSkew(config);
  } else {
    return Usage();
  }

  std::fprintf(stderr, "s4bench %s seed %llu: simd %s, %lld attempted, "
               "%lld failed\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               s4::simd::BackendName(),
               static_cast<long long>(report.attempted),
               static_cast<long long>(report.failed));
  for (const auto& [kind, ops] : report.ops) {
    std::fprintf(stderr, "  %-8s %lld attempted, %lld failed\n", kind.c_str(),
                 static_cast<long long>(ops.attempted),
                 static_cast<long long>(ops.failed));
  }
  const size_t shown = 20;
  for (size_t i = 0; i < report.errors.size() && i < shown; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", report.errors[i].c_str());
  }
  if (report.errors.size() > shown) {
    std::fprintf(stderr, "... %zu more failed checks\n",
                 report.errors.size() - shown);
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const s4bench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
