// Incremental computation (Sec 5.4, Appendix A.1): correctness of the
// session-based strategies versus fresh searches, and the work savings.
#include <gtest/gtest.h>

#include "strategy/incremental.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using testing::Fig2aSheet;
using testing::TpchGraph;
using testing::TpchIndex;

std::vector<double> Scores(const SearchResult& r) {
  std::vector<double> out;
  for (const ScoredQuery& sq : r.topk) out.push_back(sq.score);
  return out;
}

void ExpectSameScores(const SearchResult& a, const SearchResult& b,
                      const std::string& label) {
  std::vector<double> sa = Scores(a), sb = Scores(b);
  ASSERT_EQ(sa.size(), sb.size()) << label;
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i], sb[i], 1e-9) << label << " rank " << i;
  }
}

class IncrementalTest : public ::testing::TestWithParam<IncrementalMode> {};

// Typing the Fig 2(a) spreadsheet cell-by-cell must give, after every
// step, the same top-k scores as a fresh FASTTOPK search on the current
// sheet.
TEST_P(IncrementalTest, CellByCellMatchesFreshSearch) {
  const IncrementalMode mode = GetParam();
  SearchOptions options;
  options.k = 5;
  SearchSession session = [&] {
    return SearchSession(TpchIndex(), TpchGraph(), options);
  }();

  const std::vector<std::vector<std::string>> full{
      {"Rick", "USA", "Xbox"},
      {"Julie", "", "iPhone"},
      {"Kevin", "Canada", ""},
  };
  // Simulate row-wise, left-to-right typing: after the first full row,
  // add one cell at a time (paper's Fig 11 simulation).
  std::vector<std::vector<std::string>> cells{full[0]};
  for (size_t row = 1; row < full.size(); ++row) {
    cells.push_back({"", "", ""});
    for (size_t col = 0; col < full[row].size(); ++col) {
      cells[row][col] = full[row][col];
      auto sheet =
          ExampleSpreadsheet::FromCells(cells, TpchIndex().tokenizer());
      ASSERT_TRUE(sheet.ok());
      if (!sheet->Validate().ok()) continue;  // row still empty

      SearchResult inc = session.Search(*sheet, mode);
      SearchResult fresh =
          SearchFastTopK(TpchIndex(), TpchGraph(), *sheet, options);
      ExpectSameScores(inc, fresh,
                       "row " + std::to_string(row) + " col " +
                           std::to_string(col));
    }
  }
  EXPECT_GT(session.NumRememberedQueries(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, IncrementalTest,
    ::testing::Values(IncrementalMode::kFastTopKInc,
                      IncrementalMode::kBaselineInc,
                      IncrementalMode::kFastTopKNInc),
    [](const ::testing::TestParamInfo<IncrementalMode>& info) {
      switch (info.param) {
        case IncrementalMode::kFastTopKInc:
          return "FastTopKInc";
        case IncrementalMode::kBaselineInc:
          return "BaselineInc";
        case IncrementalMode::kFastTopKNInc:
          return "FastTopKNInc";
      }
      return "Unknown";
    });

// The incremental strategy evaluates fewer query-rows than the
// non-incremental restart when only one cell changes.
TEST(IncrementalSavingsTest, FewerRowEvaluationsThanRestart) {
  SearchOptions options;
  options.k = 5;
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());

  SearchSession inc(TpchIndex(), TpchGraph(), options);
  inc.Search(sheet, IncrementalMode::kFastTopKInc);
  ExampleSpreadsheet edited =
      sheet.WithCell(2, 2, "Samsung", TpchIndex().tokenizer());
  SearchResult inc_result =
      inc.Search(edited, IncrementalMode::kFastTopKInc);

  SearchSession ninc(TpchIndex(), TpchGraph(), options);
  ninc.Search(sheet, IncrementalMode::kFastTopKNInc);
  SearchResult ninc_result =
      ninc.Search(edited, IncrementalMode::kFastTopKNInc);

  ExpectSameScores(inc_result, ninc_result, "inc-vs-ninc");
  EXPECT_LT(inc_result.profile.query_row_evals,
            ninc_result.profile.query_row_evals);
}

// Editing the same row twice in a row keeps results correct (stale-score
// invalidation path).
TEST(IncrementalSavingsTest, RepeatedEditsStayCorrect) {
  SearchOptions options;
  options.k = 5;
  SearchSession session(TpchIndex(), TpchGraph(), options);
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  session.Search(sheet);

  for (const char* value : {"Samsung", "Xbox", "iPhone"}) {
    sheet = sheet.WithCell(2, 2, value, TpchIndex().tokenizer());
    SearchResult inc = session.Search(sheet);
    SearchResult fresh =
        SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
    ExpectSameScores(inc, fresh, std::string("edit ") + value);
  }
}

// Adding a column restarts cleanly.
TEST(IncrementalSavingsTest, ColumnChangeRestarts) {
  SearchOptions options;
  options.k = 5;
  SearchSession session(TpchIndex(), TpchGraph(), options);
  auto sheet2 = ExampleSpreadsheet::FromCells(
      {{"Rick", "USA"}, {"Kevin", "Canada"}}, TpchIndex().tokenizer());
  ASSERT_TRUE(sheet2.ok());
  session.Search(*sheet2);

  ExampleSpreadsheet sheet3 = Fig2aSheet(TpchIndex());
  SearchResult inc = session.Search(sheet3);
  SearchResult fresh =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet3, options);
  ExpectSameScores(inc, fresh, "column-added");
}

TEST(IncrementalSavingsTest, ResetForgetsHistory) {
  SearchOptions options;
  SearchSession session(TpchIndex(), TpchGraph(), options);
  session.Search(Fig2aSheet(TpchIndex()));
  EXPECT_GT(session.NumRememberedQueries(), 0);
  session.Reset();
  EXPECT_EQ(session.NumRememberedQueries(), 0);
}

}  // namespace
}  // namespace s4
