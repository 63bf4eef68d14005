#ifndef S4BENCH_REFERENCE_H_
#define S4BENCH_REFERENCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "query/pj_query.h"
#include "query/spreadsheet.h"
#include "score/score_model.h"
#include "storage/database.h"
#include "text/tokenizer.h"

namespace s4bench {

// A query's score recomputed from first principles.
struct RefScore {
  double row_score = 0.0;     // Eq. 3
  double column_score = 0.0;  // Eq. 4
  double score = 0.0;         // Eq. 5
};

// Independent scorer for the output checks: recomputes Eq. 3-5 for a
// PJ query straight from the raw Database rows and declared foreign keys,
// with a plain max-sum dynamic program over the join tree under
// inner-join semantics. It shares nothing with the evaluator, FlatMap64
// or the sub-PJ cache; only the tokenizer is common, because it defines
// the vocabulary both sides match on. Base scoring model only (no
// Appendix A.2 extensions), which is what every workload searches with.
class ReferenceScorer {
 public:
  // `db` must be finalized and outlive the scorer.
  explicit ReferenceScorer(const s4::Database& db,
                           s4::TokenizerOptions tokenizer = {});

  RefScore Score(const s4::PJQuery& query,
                 const s4::ExampleSpreadsheet& sheet,
                 double alpha = s4::ScoreParams{}.alpha) const;

 private:
  // Sorted distinct tokens of every cell of text column (table, column).
  const std::vector<std::vector<std::string>>& Tokens(s4::TableId table,
                                                      int32_t column) const;
  // Number of the example cell's terms found in the database cell.
  static double CellSim(const std::vector<std::string>& es_terms,
                        const std::vector<std::string>& db_tokens);

  const s4::Database* db_;
  s4::Tokenizer tokenizer_;
  mutable std::unordered_map<int64_t, std::vector<std::vector<std::string>>>
      tokens_;
};

}  // namespace s4bench

#endif  // S4BENCH_REFERENCE_H_
