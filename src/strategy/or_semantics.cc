#include "strategy/or_semantics.h"

#include <unordered_map>

#include "common/topk_heap.h"

namespace s4 {

SearchResult SearchOrSemantics(const IndexSet& index,
                               const SchemaGraph& graph,
                               const ExampleSpreadsheet& sheet,
                               const SearchOptions& options,
                               OrStrategy strategy) {
  const int32_t c = sheet.NumColumns();
  if (strategy == OrStrategy::kDirect) {
    SearchOptions direct_options = options;
    direct_options.enumeration.or_semantics = true;
    return SearchFastTopK(index, graph, sheet, direct_options);
  }
  SearchResult out;
  TopKHeap<ScoredQuery> topk(static_cast<size_t>(options.k));
  // Queries can only repeat across subsets if their signatures match
  // (same tree and same mapped columns); keep the best-scored copy.
  std::unordered_map<std::string, double> seen;

  for (uint32_t mask = 1; mask < (1u << c); ++mask) {
    SearchOptions sub_options = options;
    sub_options.enumeration.active_columns.clear();
    for (int32_t i = 0; i < c; ++i) {
      if (mask & (1u << i)) {
        sub_options.enumeration.active_columns.push_back(i);
      }
    }
    // Each subset search inherits num_threads; parallelism lives inside
    // the per-subset Stage-II evaluation, not across subsets.
    SearchResult r = strategy == OrStrategy::kNaive
                         ? SearchNaive(index, graph, sheet, sub_options)
                         : SearchFastTopK(index, graph, sheet, sub_options);
    for (ScoredQuery& sq : r.topk) {
      auto it = seen.find(sq.query.signature());
      if (it != seen.end() && it->second >= sq.score) continue;
      seen[sq.query.signature()] = sq.score;
      std::string key = sq.query.signature();
      topk.Offer(sq.score, std::move(sq), std::move(key));
    }
    out.profile.Accumulate(r.profile);
    out.approximate |= r.approximate;
    out.interrupted |= r.interrupted;
  }
  for (auto& [score, sq] : topk.TakeSortedDescending()) {
    (void)score;
    out.topk.push_back(std::move(sq));
  }
  return out;
}

}  // namespace s4
