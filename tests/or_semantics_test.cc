// OR-column-mapping semantics (Appendix A.3).
#include <gtest/gtest.h>

#include "strategy/or_semantics.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using testing::Fig2aSheet;
using testing::TpchGraph;
using testing::TpchIndex;

TEST(OrSemanticsTest, SupersetOfAndCandidates) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchOptions options;
  options.k = 10;
  SearchResult and_result =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
  SearchResult or_result =
      SearchOrSemantics(TpchIndex(), TpchGraph(), sheet, options);

  // OR enumerates at least as many queries in total.
  EXPECT_GE(or_result.profile.candidates_enumerated,
            and_result.profile.candidates_enumerated);

  // Paper Fig 12(a): for fully-matched spreadsheets the top results of
  // OR and AND coincide — every AND top-k query also exists under OR,
  // and the best OR scores are not below the best AND scores.
  ASSERT_FALSE(or_result.topk.empty());
  EXPECT_GE(or_result.topk[0].score, and_result.topk[0].score - 1e-9);
}

TEST(OrSemanticsTest, FullMappingWinsWhenSpreadsheetMatches) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchOptions options;
  options.k = 3;
  SearchResult or_result =
      SearchOrSemantics(TpchIndex(), TpchGraph(), sheet, options);
  ASSERT_FALSE(or_result.topk.empty());
  // The winner should map all three columns (AND semantics dominates
  // when the data supports it) — subsets lose score mass.
  std::set<int32_t> mapped;
  for (const ProjectionBinding& b : or_result.topk[0].query.bindings()) {
    mapped.insert(b.es_column);
  }
  EXPECT_EQ(mapped.size(), 3u);
}

TEST(OrSemanticsTest, NaiveAndFastAgree) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchOptions options;
  options.k = 5;
  SearchResult fast = SearchOrSemantics(TpchIndex(), TpchGraph(), sheet,
                                        options, OrStrategy::kFastTopK);
  SearchResult naive = SearchOrSemantics(TpchIndex(), TpchGraph(), sheet,
                                         options, OrStrategy::kNaive);
  ASSERT_EQ(fast.topk.size(), naive.topk.size());
  for (size_t i = 0; i < fast.topk.size(); ++i) {
    EXPECT_NEAR(fast.topk[i].score, naive.topk[i].score, 1e-9);
  }
  // NAIVE evaluates everything it enumerates.
  EXPECT_EQ(naive.profile.candidates_evaluated,
            naive.profile.candidates_enumerated);
  EXPECT_LE(fast.profile.candidates_evaluated,
            naive.profile.candidates_evaluated);
}

// The "more direct way" (single extended candidate set) must return the
// same top-k scores as the subset-union implementation.
TEST(OrSemanticsTest, DirectMatchesSubsetUnion) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchOptions options;
  options.k = 10;
  SearchResult subset = SearchOrSemantics(TpchIndex(), TpchGraph(), sheet,
                                          options, OrStrategy::kFastTopK);
  SearchResult direct = SearchOrSemantics(TpchIndex(), TpchGraph(), sheet,
                                          options, OrStrategy::kDirect);
  ASSERT_EQ(subset.topk.size(), direct.topk.size());
  for (size_t i = 0; i < subset.topk.size(); ++i) {
    EXPECT_NEAR(subset.topk[i].score, direct.topk[i].score, 1e-9)
        << "rank " << i;
  }
  // The direct variant enumerates once, so it sees fewer total
  // candidates than the sum over subsets but at least as many as AND.
  SearchResult and_r = SearchFastTopK(TpchIndex(), TpchGraph(), sheet,
                                      options);
  EXPECT_GE(direct.profile.candidates_enumerated,
            and_r.profile.candidates_enumerated);
  EXPECT_LE(direct.profile.candidates_enumerated,
            subset.profile.candidates_enumerated);
}

TEST(OrSemanticsTest, DirectHandlesUnmatchableColumn) {
  auto sheet = ExampleSpreadsheet::FromCells({{"Xbox", "qqqnothing"}},
                                             TpchIndex().tokenizer());
  ASSERT_TRUE(sheet.ok());
  SearchOptions options;
  SearchResult r = SearchOrSemantics(TpchIndex(), TpchGraph(), *sheet,
                                     options, OrStrategy::kDirect);
  ASSERT_FALSE(r.topk.empty());
  for (const ScoredQuery& sq : r.topk) {
    for (const ProjectionBinding& b : sq.query.bindings()) {
      EXPECT_EQ(b.es_column, 0);
    }
  }
}

TEST(OrSemanticsTest, HandlesUnmatchableColumn) {
  auto sheet = ExampleSpreadsheet::FromCells({{"Xbox", "qqqnothing"}},
                                             TpchIndex().tokenizer());
  ASSERT_TRUE(sheet.ok());
  SearchOptions options;
  SearchResult or_result =
      SearchOrSemantics(TpchIndex(), TpchGraph(), *sheet, options);
  ASSERT_FALSE(or_result.topk.empty());
  for (const ScoredQuery& sq : or_result.topk) {
    for (const ProjectionBinding& b : sq.query.bindings()) {
      EXPECT_EQ(b.es_column, 0);  // only column A is mappable
    }
  }
}

}  // namespace
}  // namespace s4
