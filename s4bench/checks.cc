#include "checks.h"

#include <algorithm>

#include "common/string_util.h"

namespace s4bench {

using s4::StrFormat;

std::vector<Hit> HitsOf(const std::vector<s4::ScoredQuery>& topk) {
  std::vector<Hit> out;
  for (const s4::ScoredQuery& q : topk) {
    out.push_back({q.query.signature(), q.score, q.upper_bound, q.row_score,
                   q.column_score});
  }
  return out;
}

std::vector<Hit> HitsOf(const std::vector<s4::net::NetTopkEntry>& topk) {
  std::vector<Hit> out;
  for (const s4::net::NetTopkEntry& e : topk) {
    out.push_back({e.signature, e.score, e.upper_bound, e.row_score,
                   e.column_score});
  }
  return out;
}

void CheckOrderAndBounds(const std::vector<Hit>& hits, const std::string& label,
                         std::vector<std::string>* errors) {
  for (size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].score > hits[i].upper_bound) {
      errors->push_back(StrFormat("%s: hit %zu score %.17g above its upper "
                                  "bound %.17g",
                                  label.c_str(), i, hits[i].score,
                                  hits[i].upper_bound));
    }
    if (i == 0) continue;
    const Hit& a = hits[i - 1];
    const Hit& b = hits[i];
    const bool ordered = a.score > b.score ||
                         (a.score == b.score && a.signature < b.signature);
    if (!ordered) {
      errors->push_back(StrFormat("%s: hits %zu and %zu out of canonical "
                                  "order (%.17g, %.17g)",
                                  label.c_str(), i - 1, i, a.score, b.score));
    }
  }
}

void CheckAgainstReference(const ReferenceScorer& ref,
                           const s4::ExampleSpreadsheet& sheet,
                           const std::vector<s4::ScoredQuery>& topk,
                           const std::string& label,
                           std::vector<std::string>* errors) {
  for (size_t i = 0; i < topk.size(); ++i) {
    const s4::ScoredQuery& q = topk[i];
    const RefScore want = ref.Score(q.query, sheet);
    if (q.score != want.score || q.row_score != want.row_score ||
        q.column_score != want.column_score) {
      errors->push_back(StrFormat(
          "%s: hit %zu scored %.17g (row %.17g, col %.17g); reference "
          "%.17g (row %.17g, col %.17g)",
          label.c_str(), i, q.score, q.row_score, q.column_score, want.score,
          want.row_score, want.column_score));
    }
  }
}

bool IsEnumerableShape(const s4::PJQuery& query) {
  const s4::JoinTree& tree = query.tree();
  // (node, edge) pairs over which the node holds the foreign key.
  std::vector<std::pair<int32_t, int32_t>> held;
  for (s4::TreeNodeId v = 1; v < tree.size(); ++v) {
    const s4::JoinTree::Node& n = tree.node(v);
    held.emplace_back(n.parent_holds_fk ? n.parent : v, n.edge_to_parent);
  }
  std::sort(held.begin(), held.end());
  return std::adjacent_find(held.begin(), held.end()) == held.end();
}

void CheckSourceQuery(const ReferenceScorer& ref,
                      const s4::ExampleSpreadsheet& sheet,
                      const s4::PJQuery& source, const std::vector<Hit>& hits,
                      int32_t k, const std::string& label,
                      std::vector<std::string>* errors) {
  const double src = ref.Score(source, sheet).score;
  if (hits.empty()) {
    errors->push_back(label + ": no hits, but the generating query exists");
    return;
  }
  if (hits.front().score < src) {
    errors->push_back(StrFormat("%s: top-1 %.17g below the generating "
                                "query's %.17g",
                                label.c_str(), hits.front().score, src));
  }
  const bool must_be_in = IsEnumerableShape(source) &&
                          (static_cast<int32_t>(hits.size()) < k ||
                           src > hits.back().score);
  if (!must_be_in) return;
  for (const Hit& h : hits) {
    if (h.signature == source.signature()) return;
  }
  errors->push_back(StrFormat("%s: generating query (score %.17g) missing "
                              "from the top-%d (k-th %.17g)",
                              label.c_str(), src, k, hits.back().score));
}

void CheckSameHits(const std::vector<Hit>& got, const std::vector<Hit>& want,
                   const std::string& label, std::vector<std::string>* errors) {
  if (got.size() != want.size()) {
    errors->push_back(StrFormat("%s: %zu hits, expected %zu", label.c_str(),
                                got.size(), want.size()));
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const Hit& a = got[i];
    const Hit& b = want[i];
    if (a.signature != b.signature || a.score != b.score ||
        a.upper_bound != b.upper_bound || a.row_score != b.row_score ||
        a.column_score != b.column_score) {
      errors->push_back(StrFormat("%s: hit %zu differs (%.17g vs %.17g)",
                                  label.c_str(), i, a.score, b.score));
      return;
    }
  }
}

}  // namespace s4bench
