// Reproduces Exp-II / Figure 8: execution time of BASELINE vs FASTTOPK
// as the cache budget B varies, for the low and high term-frequency
// buckets. The paper sweeps 100..2000 MiB on a 95 GB database; the
// synthetic stand-in sweeps budgets proportional to its own sub-PJ
// table sizes so the same saturation shape appears.
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;
  using datagen::EsBucket;

  JsonInit(argc, argv, "fig8_cache_size");
  PrintHeader("Figure 8: varying cache size B (Exp-II)",
              "CSUPP-sim; BASELINE is cache-independent (flat line)");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 36));
  Workload workload = MakeWorkload(*world, es_count);

  const std::vector<size_t> budgets_kib = {16, 64, 256, 1024, 4096};

  for (EsBucket bucket : {EsBucket::kLow, EsBucket::kHigh}) {
    std::printf("bucket: %s\n", datagen::EsBucketName(bucket));
    TablePrinter tp({"B (KiB)", "Baseline (ms)", "FastTopK (ms)",
                     "speedup", "cache hits/ES", "critical subs/ES"});
    const std::vector<size_t> members = workload.InBucket(bucket);
    for (size_t kib : budgets_kib) {
      SearchOptions options;
      options.enumeration.max_tree_size = 4;
      options.cache_budget_bytes = kib << 10;
      Agg base_agg, fast_agg;
      for (size_t i : members) {
        PreparedSearch prep(*world->index, *world->graph,
                            workload.es[i].sheet, options);
        base_agg.Add(RunBaseline(prep, options).profile);
        fast_agg.Add(RunFastTopK(prep, options).profile);
      }
      if (fast_agg.runs == 0) continue;
      tp.AddRow(
          {TablePrinter::Int(static_cast<long long>(kib)),
           TablePrinter::Num(base_agg.AvgTotalMs(), 3),
           TablePrinter::Num(fast_agg.AvgTotalMs(), 3),
           TablePrinter::Num(base_agg.AvgTotalMs() / fast_agg.AvgTotalMs(),
                             2) +
               "x",
           TablePrinter::Num(static_cast<double>(fast_agg.cache_hits) /
                                 static_cast<double>(fast_agg.runs),
                             1),
           TablePrinter::Num(
               static_cast<double>(fast_agg.critical_subs_cached) /
                   static_cast<double>(fast_agg.runs),
               1)});
      const std::string section = std::string("bucket=") +
                                  datagen::EsBucketName(bucket) +
                                  "/B_kib=" + std::to_string(kib);
      JsonMetric(section, "baseline_ms", base_agg.AvgTotalMs());
      JsonMetric(section, "fasttopk_ms", fast_agg.AvgTotalMs());
      JsonMetric(section, "cache_hits_per_es",
                 static_cast<double>(fast_agg.cache_hits) /
                     static_cast<double>(fast_agg.runs));
      JsonCacheStats(section, fast_agg.CacheTotals());
    }
    tp.Print();
    std::printf("\n");
  }
  // Process-wide view of the same work, from the metrics registry the
  // strategies publish into (additive fields; the per-section metrics
  // above are unchanged).
  JsonMetricsSnapshot("registry", obs::MetricsRegistry::Global().Snapshot());

  std::printf(
      "paper's shape: FASTTOPK beats BASELINE at every budget; the gap"
      " widens with B until the shared sub-PJ outputs all fit.\n");
  return 0;
}
