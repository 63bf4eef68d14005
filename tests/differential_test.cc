// Strategy-equivalence differential suite: across randomly generated
// schemas, NAIVE, BASELINE and FASTTOPK must return the same top-k sets
// and scores (Thm 1 / Thm 3) at every thread count. The serial NAIVE
// run is the reference; every other (strategy, num_threads) combination
// is compared against it rank-by-rank.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/random_schema.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

// Rank-by-rank score agreement plus tie-safe signature agreement: where
// the reference score is unique (no neighbor within tolerance), the
// signature at that rank must match too; among exact ties only the
// score sequence is pinned down.
void ExpectEquivalentTopK(const SearchResult& ref, const SearchResult& got,
                          const std::string& label) {
  ASSERT_EQ(ref.topk.size(), got.topk.size()) << label;
  const double kTol = 1e-9;
  for (size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_NEAR(ref.topk[i].score, got.topk[i].score, kTol)
        << label << " rank " << i;
    const bool tied_prev =
        i > 0 && std::abs(ref.topk[i].score - ref.topk[i - 1].score) <= kTol;
    const bool tied_next =
        i + 1 < ref.topk.size() &&
        std::abs(ref.topk[i].score - ref.topk[i + 1].score) <= kTol;
    if (!tied_prev && !tied_next) {
      EXPECT_EQ(ref.topk[i].query.signature(), got.topk[i].query.signature())
          << label << " rank " << i;
    }
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, StrategiesAgreeAcrossThreadCounts) {
  const uint64_t seed = GetParam();
  datagen::RandomSchemaOptions opts;
  opts.seed = seed;
  opts.num_tables = 4 + static_cast<int32_t>(seed % 4);
  auto db = datagen::MakeRandomSchema(opts);
  ASSERT_TRUE(db.ok()) << db.status();

  auto index = IndexSet::Build(*db);
  ASSERT_TRUE(index.ok());
  SchemaGraph graph(*db);

  // Random spreadsheet over the generator's shared vocabulary.
  Rng rng(seed * 131 + 7);
  std::vector<std::vector<std::string>> cells(2);
  for (auto& row : cells) {
    for (int c = 0; c < 2; ++c) {
      std::string cell = StrFormat(
          "w%lld", static_cast<long long>(rng.Uniform(opts.vocab_size)));
      if (rng.Bernoulli(0.4)) {
        cell += StrFormat(
            " w%lld",
            static_cast<long long>(rng.Uniform(opts.vocab_size)));
      }
      row.push_back(cell);
    }
  }
  auto sheet = ExampleSpreadsheet::FromCells(cells, (*index)->tokenizer());
  ASSERT_TRUE(sheet.ok());

  SearchOptions base;
  base.k = 5;
  base.enumeration.max_tree_size = 3;
  base.enumeration.max_queries = 4000;
  base.num_threads = 1;
  PreparedSearch prep(**index, graph, *sheet, base);
  SearchResult ref = RunNaive(prep, base);

  for (int32_t threads : {1, 4}) {
    SearchOptions options = base;
    options.num_threads = threads;
    const std::string suffix =
        " seed=" + std::to_string(seed) + " T=" + std::to_string(threads);
    SearchResult naive = RunNaive(prep, options);
    SearchResult baseline = RunBaseline(prep, options);
    SearchResult fast = RunFastTopK(prep, options);
    ExpectEquivalentTopK(ref, naive, "naive" + suffix);
    ExpectEquivalentTopK(ref, baseline, "baseline" + suffix);
    ExpectEquivalentTopK(ref, fast, "fasttopk" + suffix);
    // Pruning invariants hold at any thread count.
    EXPECT_EQ(naive.profile.candidates_evaluated,
              naive.profile.candidates_enumerated)
        << suffix;
    EXPECT_LE(baseline.profile.candidates_evaluated,
              naive.profile.candidates_evaluated)
        << suffix;
    EXPECT_LE(fast.profile.candidates_evaluated +
                  fast.profile.skipped_by_condition,
              naive.profile.candidates_evaluated)
        << suffix;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace s4
