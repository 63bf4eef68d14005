#include "reference.h"

#include <algorithm>

namespace s4bench {

using s4::Database;
using s4::ExampleSpreadsheet;
using s4::ForeignKeyDef;
using s4::JoinTree;
using s4::PJQuery;
using s4::ProjectionBinding;
using s4::Table;
using s4::TableId;

ReferenceScorer::ReferenceScorer(const Database& db,
                                 s4::TokenizerOptions tokenizer)
    : db_(&db), tokenizer_(tokenizer) {}

const std::vector<std::vector<std::string>>& ReferenceScorer::Tokens(
    TableId table, int32_t column) const {
  const int64_t key = (static_cast<int64_t>(table) << 32) | column;
  auto it = tokens_.find(key);
  if (it != tokens_.end()) return it->second;
  const Table& t = db_->table(table);
  std::vector<std::vector<std::string>> cells(
      static_cast<size_t>(t.NumRows()));
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    if (t.IsNull(r, column)) continue;
    std::vector<std::string> tok = tokenizer_.Tokenize(t.GetText(r, column));
    std::sort(tok.begin(), tok.end());
    tok.erase(std::unique(tok.begin(), tok.end()), tok.end());
    cells[static_cast<size_t>(r)] = std::move(tok);
  }
  return tokens_.emplace(key, std::move(cells)).first->second;
}

double ReferenceScorer::CellSim(const std::vector<std::string>& es_terms,
                                const std::vector<std::string>& db_tokens) {
  double sim = 0.0;
  for (const std::string& w : es_terms) {
    if (std::binary_search(db_tokens.begin(), db_tokens.end(), w)) sim += 1;
  }
  return sim;
}

RefScore ReferenceScorer::Score(const PJQuery& query,
                                const ExampleSpreadsheet& sheet,
                                double alpha) const {
  const JoinTree& tree = query.tree();
  const size_t m = static_cast<size_t>(sheet.NumRows());
  const int32_t n = tree.size();
  const std::vector<ForeignKeyDef>& fks = db_->foreign_keys();

  RefScore out;
  // Eq. 4: per binding, the best cell similarity over the whole mapped
  // column, summed over example rows; no join involved.
  for (const ProjectionBinding& b : query.bindings()) {
    const auto& cells = Tokens(tree.node(b.node).table, b.column);
    for (size_t t = 0; t < m; ++t) {
      const auto& terms = sheet.cell(static_cast<int32_t>(t), b.es_column)
                              .terms;
      double best = 0.0;
      for (const auto& tok : cells) best = std::max(best, CellSim(terms, tok));
      out.column_score += best;
    }
  }

  // Eq. 3 by dynamic programming, leaves first (a node's parent always
  // precedes it). best[v][r*m + t] is the best total similarity for
  // example row t of any join of v's subtree that uses row r of v;
  // alive[v][r] is false when some child subtree has no joining row.
  std::vector<std::vector<double>> best(static_cast<size_t>(n));
  std::vector<std::vector<bool>> alive(static_cast<size_t>(n));
  for (int32_t v = n - 1; v >= 0; --v) {
    const Table& table = db_->table(tree.node(v).table);
    const size_t rows = static_cast<size_t>(table.NumRows());
    std::vector<double>& bv = best[static_cast<size_t>(v)];
    std::vector<bool>& av = alive[static_cast<size_t>(v)];
    bv.assign(rows * m, 0.0);
    av.assign(rows, true);
    for (const ProjectionBinding& b : query.bindings()) {
      if (b.node != v) continue;
      const auto& cells = Tokens(tree.node(v).table, b.column);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t t = 0; t < m; ++t) {
          bv[r * m + t] += CellSim(
              sheet.cell(static_cast<int32_t>(t), b.es_column).terms,
              cells[r]);
        }
      }
    }
    for (int32_t c = v + 1; c < n; ++c) {
      const JoinTree::Node& cn = tree.node(c);
      if (cn.parent != v) continue;
      const ForeignKeyDef& fk = fks[static_cast<size_t>(cn.edge_to_parent)];
      const Table& child = db_->table(cn.table);
      const std::vector<double>& bc = best[static_cast<size_t>(c)];
      const std::vector<bool>& ac = alive[static_cast<size_t>(c)];
      if (cn.parent_holds_fk) {
        // v's foreign key names exactly one child row.
        for (size_t r = 0; r < rows; ++r) {
          if (!av[r]) continue;
          const int64_t row = table.IsNull(r, fk.src_column)
                                  ? -1
                                  : child.FindByPk(table.GetInt(
                                        r, fk.src_column));
          if (row < 0 || !ac[static_cast<size_t>(row)]) {
            av[r] = false;
            continue;
          }
          for (size_t t = 0; t < m; ++t) {
            bv[r * m + t] += bc[static_cast<size_t>(row) * m + t];
          }
        }
      } else {
        // Child rows point at v's key: take, per example row, the best
        // over all live child rows referencing it.
        std::unordered_map<int64_t, std::vector<double>> by_key;
        for (size_t rc = 0; rc < static_cast<size_t>(child.NumRows());
             ++rc) {
          if (!ac[rc] || child.IsNull(rc, fk.src_column)) continue;
          auto [it, fresh] =
              by_key.try_emplace(child.GetInt(rc, fk.src_column));
          if (fresh) it->second.assign(m, 0.0);
          for (size_t t = 0; t < m; ++t) {
            it->second[t] = std::max(it->second[t], bc[rc * m + t]);
          }
        }
        const int32_t pk = table.primary_key_column();
        for (size_t r = 0; r < rows; ++r) {
          if (!av[r]) continue;
          auto it = by_key.find(table.GetInt(r, pk));
          if (it == by_key.end()) {
            av[r] = false;
            continue;
          }
          for (size_t t = 0; t < m; ++t) bv[r * m + t] += it->second[t];
        }
      }
    }
  }
  std::vector<double> per_row(m, 0.0);
  for (size_t r = 0; r < alive[0].size(); ++r) {
    if (!alive[0][r]) continue;
    for (size_t t = 0; t < m; ++t) {
      per_row[t] = std::max(per_row[t], best[0][r * m + t]);
    }
  }
  for (double v : per_row) out.row_score += v;
  out.score = s4::CombineScore(out.row_score, out.column_score, alpha, n);
  return out;
}

}  // namespace s4bench
