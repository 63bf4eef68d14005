// Enterprise query discovery over a synthetic customer-support warehouse
// (the paper's motivating scenario, Sec 1): an information worker
// remembers fragments of a few support tickets — a customer name, a
// product, an agent — and wants the project-join query that produces
// them, without knowing the 11-relation schema.
//
// Demonstrates:
//   * building indexes over a generated CSUPP-like database,
//   * error tolerance (one of the typed cells is wrong on purpose),
//   * the three strategies returning identical top-k with very
//     different amounts of work.
#include <cstdio>

#include "datagen/es_gen.h"
#include "datagen/synthetic.h"
#include "s4/s4.h"

int main() {
  using namespace s4;

  datagen::CsuppSimOptions gen_opts;
  gen_opts.scale = 1;
  auto db = datagen::MakeCsuppSim(gen_opts);
  if (!db.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  auto s4 = S4System::Create(*db);
  if (!s4.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 s4.status().ToString().c_str());
    return 1;
  }
  std::printf("Indexed a %d-relation support warehouse (%lld tickets).\n\n",
              db->NumTables(),
              static_cast<long long>(db->FindTable("Ticket")->NumRows()));

  // Pull a realistic example spreadsheet out of the warehouse itself:
  // three remembered (customer, ticket subject, product) combinations,
  // two of which contain a relationship error — values that exist but
  // belong to a different ticket (Sec 2.3's error model).
  datagen::EsGenerator gen((*s4)->index(), (*s4)->graph(), /*seed=*/7);
  if (Status st = gen.Init(/*min_text_columns=*/6, /*max_tree_size=*/4);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  datagen::EsGenOptions es_opts;
  es_opts.relationship_errors = 2;
  auto es = gen.Generate(es_opts);
  if (!es.ok()) {
    std::fprintf(stderr, "%s\n", es.status().ToString().c_str());
    return 1;
  }
  std::printf("What the user typed (2 cells are wrong on purpose):\n%s\n",
              es->sheet.ToString().c_str());

  SearchOptions options;
  options.k = 5;
  options.enumeration.max_tree_size = 4;

  SearchResult fast = (*s4)->Search(es->sheet, options);
  std::printf("%s", (*s4)->FormatResults(fast, /*max_sql=*/1).c_str());

  std::printf("\nSame answer, different work:\n");
  SearchResult naive =
      (*s4)->Search(es->sheet, options, S4System::Strategy::kNaive);
  SearchResult baseline =
      (*s4)->Search(es->sheet, options, S4System::Strategy::kBaseline);
  std::printf(
      "  NAIVE     evaluated %4lld queries in %6.1f ms\n"
      "  BASELINE  evaluated %4lld queries in %6.1f ms\n"
      "  FASTTOPK  evaluated %4lld queries in %6.1f ms"
      " (%lld cache hits, %lld critical sub-PJs)\n",
      static_cast<long long>(naive.profile.candidates_evaluated),
      1e3 * (naive.profile.enum_seconds + naive.profile.eval_seconds),
      static_cast<long long>(baseline.profile.candidates_evaluated),
      1e3 * (baseline.profile.enum_seconds + baseline.profile.eval_seconds),
      static_cast<long long>(fast.profile.candidates_evaluated),
      1e3 * (fast.profile.enum_seconds + fast.profile.eval_seconds),
      static_cast<long long>(fast.profile.cache_hits),
      static_cast<long long>(fast.profile.critical_subs_cached));

  if (!fast.topk.empty() &&
      fast.topk[0].query.signature() == es->source_query.signature()) {
    std::printf("\nThe top result is exactly the query the spreadsheet was"
                " sampled from.\n");
  }
  return 0;
}
