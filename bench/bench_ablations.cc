// Ablations of the implementation's design choices (DESIGN.md):
//   (a) exact inner-join semantics vs the paper's drop-zero-rows Stage II
//       shortcut (speed vs score fidelity);
//   (b) FASTTOPK with a degenerate 1-byte cache budget vs the default
//       (isolates the benefit of sub-PJ caching from batching/skipping);
//   (c) cost-aware rooting (root join trees at the smallest relation)
//       vs pure signature rooting (how much sharing the rooting buys).
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;

  JsonInit(argc, argv, "ablations");
  PrintHeader("Ablations of design choices",
              "CSUPP-sim, Table-2 defaults unless stated");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 20));
  Workload workload = MakeWorkload(*world, es_count);

  // (a) drop-zero-rows shortcut.
  {
    SearchOptions exact_opts;
    exact_opts.enumeration.max_tree_size = 4;
    SearchOptions drop_opts = exact_opts;
    drop_opts.drop_zero_rows = true;

    Agg exact_agg, drop_agg;
    double max_score_delta = 0.0;
    int64_t changed_results = 0;
    for (const datagen::GeneratedEs& es : workload.es) {
      SearchResult exact =
          SearchFastTopK(*world->index, *world->graph, es.sheet, exact_opts);
      SearchResult drop =
          SearchFastTopK(*world->index, *world->graph, es.sheet, drop_opts);
      exact_agg.Add(exact.profile);
      drop_agg.Add(drop.profile);
      const size_t n = std::min(exact.topk.size(), drop.topk.size());
      for (size_t i = 0; i < n; ++i) {
        max_score_delta =
            std::max(max_score_delta,
                     std::fabs(exact.topk[i].score - drop.topk[i].score));
        if (exact.topk[i].query.signature() !=
            drop.topk[i].query.signature()) {
          ++changed_results;
        }
      }
    }
    std::printf("(a) exact join semantics vs drop-zero-rows shortcut\n");
    TablePrinter tp({"variant", "FastTopK (ms)", "model cost/ES"});
    tp.AddRow({"exact (default)",
               TablePrinter::Num(exact_agg.AvgTotalMs(), 3),
               TablePrinter::Int(exact_agg.runs == 0
                                     ? 0
                                     : exact_agg.model_cost /
                                           exact_agg.runs)});
    tp.AddRow({"drop-zero-rows",
               TablePrinter::Num(drop_agg.AvgTotalMs(), 3),
               TablePrinter::Int(drop_agg.runs == 0
                                     ? 0
                                     : drop_agg.model_cost /
                                           drop_agg.runs)});
    tp.Print();
    std::printf("max |score delta| across top-k: %.4f;"
                " result swaps: %lld\n\n",
                max_score_delta, static_cast<long long>(changed_results));
  }

  // (b) cache budget.
  {
    SearchOptions with_cache;
    with_cache.enumeration.max_tree_size = 4;
    SearchOptions no_cache = with_cache;
    no_cache.cache_budget_bytes = 1;  // nothing fits

    Agg with_agg, without_agg;
    for (const datagen::GeneratedEs& es : workload.es) {
      with_agg.Add(SearchFastTopK(*world->index, *world->graph, es.sheet,
                                  with_cache)
                       .profile);
      without_agg.Add(SearchFastTopK(*world->index, *world->graph, es.sheet,
                                     no_cache)
                          .profile);
    }
    std::printf("(b) FASTTOPK with vs without a usable cache\n");
    TablePrinter tp({"variant", "FastTopK (ms)", "cache hits/ES",
                     "critical subs/ES"});
    auto row = [&](const char* name, const Agg& a) {
      tp.AddRow({name, TablePrinter::Num(a.AvgTotalMs(), 3),
                 TablePrinter::Num(static_cast<double>(a.cache_hits) /
                                       static_cast<double>(a.runs),
                                   1),
                 TablePrinter::Num(static_cast<double>(a.critical_subs_cached) /
                                       static_cast<double>(a.runs),
                                   1)});
    };
    row("B = 500 MiB (default)", with_agg);
    row("B = 1 byte", without_agg);
    tp.Print();
    std::printf("\n");
  }

  // (c) rooting policy.
  {
    SearchOptions cheap_root;
    cheap_root.enumeration.max_tree_size = 4;
    SearchOptions sig_root = cheap_root;
    sig_root.enumeration.cost_aware_rooting = false;

    Agg cheap_agg, sig_agg;
    for (const datagen::GeneratedEs& es : workload.es) {
      cheap_agg.Add(SearchFastTopK(*world->index, *world->graph, es.sheet,
                                   cheap_root)
                        .profile);
      sig_agg.Add(SearchFastTopK(*world->index, *world->graph, es.sheet,
                                 sig_root)
                      .profile);
    }
    std::printf("(c) join-tree rooting policy (affects sub-PJ sharing)\n");
    TablePrinter tp({"variant", "FastTopK (ms)", "cache hits/ES"});
    tp.AddRow({"cost-aware rooting (default)",
               TablePrinter::Num(cheap_agg.AvgTotalMs(), 3),
               TablePrinter::Num(static_cast<double>(cheap_agg.cache_hits) /
                                     static_cast<double>(cheap_agg.runs),
                                 1)});
    tp.AddRow({"signature rooting",
               TablePrinter::Num(sig_agg.AvgTotalMs(), 3),
               TablePrinter::Num(static_cast<double>(sig_agg.cache_hits) /
                                     static_cast<double>(sig_agg.runs),
                                 1)});
    tp.Print();
  }
  return 0;
}
