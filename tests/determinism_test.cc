// Determinism guarantees of the one evaluation loop per strategy: a
// fixed seed and fixed options produce identical SearchResults across
// repeated runs, and multi-worker runs reproduce the one-worker
// (serial) top-k. NAIVE and BASELINE are bit-identical to one worker by
// construction (ordered merge / speculative replay); FASTTOPK pins the
// top-k and the scheduling-invariant stats, while cache-content-dependent
// bookkeeping (model cost, hash counters, hit rates) may differ from the
// serial schedule and between two runs with the same worker count. A
// golden table pins every serial counter across commits, and the
// progress tests pin the snapshot and stop contract of
// SearchOptions::progress.
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

struct DetWorld {
  std::unique_ptr<IndexSet> index;
  std::unique_ptr<SchemaGraph> graph;
  std::unique_ptr<ExampleSpreadsheet> sheet;
};

const DetWorld& World() {
  static const DetWorld& world = *[] {
    auto* w = new DetWorld;
    auto index = IndexSet::Build(testing::CsuppDb());
    if (!index.ok()) abort();
    w->index = std::move(index).value();
    w->graph = std::make_unique<SchemaGraph>(testing::CsuppDb());
    w->sheet = std::make_unique<ExampleSpreadsheet>(
        testing::CsuppSheet(*w->index, *w->graph));
    return w;
  }();
  return world;
}

SearchOptions Options(int32_t threads) {
  SearchOptions options;
  options.k = 8;
  options.enumeration.max_tree_size = 4;
  options.num_threads = threads;
  return options;
}

// Byte-identical top-k: signatures and exact (==) double scores.
void ExpectIdenticalTopK(const SearchResult& a, const SearchResult& b,
                         const std::string& label) {
  ASSERT_EQ(a.topk.size(), b.topk.size()) << label;
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].query.signature(), b.topk[i].query.signature())
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].score, b.topk[i].score) << label << " rank " << i;
    EXPECT_EQ(a.topk[i].row_score, b.topk[i].row_score)
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].upper_bound, b.topk[i].upper_bound)
        << label << " rank " << i;
  }
}

// Scheduling-invariant stats: identical for a fixed thread count, and
// for NAIVE/BASELINE identical across thread counts too.
void ExpectInvariantStatsEqual(const obs::SearchCounters& a,
                               const obs::SearchCounters& b,
                               const std::string& label) {
  EXPECT_EQ(a.candidates_enumerated, b.candidates_enumerated) << label;
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated) << label;
  EXPECT_EQ(a.query_row_evals, b.query_row_evals) << label;
  EXPECT_EQ(a.skipped_by_condition, b.skipped_by_condition) << label;
  EXPECT_EQ(a.batches, b.batches) << label;
  EXPECT_EQ(a.critical_subs_cached, b.critical_subs_cached) << label;
}

// Every counter row except the wall-clock timings (the seconds rows).
void ExpectAllStatsEqual(const obs::SearchCounters& a,
                         const obs::SearchCounters& b,
                         const std::string& label) {
#define S4_EXPECT_ROW(type, name, ...)               \
  if constexpr (!std::is_same_v<type, double>) {     \
    EXPECT_EQ(a.name, b.name) << label << " " #name; \
  }
  S4_SEARCH_COUNTERS(S4_EXPECT_ROW)
#undef S4_EXPECT_ROW
}

TEST(DeterminismTest, SerialRepeatedRunsIdentical) {
  const DetWorld& w = World();
  SearchOptions options = Options(/*threads=*/1);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, options);
  for (auto* runner : {&RunNaive, &RunBaseline, &RunFastTopK}) {
    SearchResult a = runner(prep, options);
    SearchResult b = runner(prep, options);
    ExpectIdenticalTopK(a, b, "serial-repeat");
    ExpectAllStatsEqual(a.profile, b.profile, "serial-repeat");
    ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
    for (size_t i = 0; i < a.evaluated.size(); ++i) {
      EXPECT_EQ(a.evaluated[i].signature, b.evaluated[i].signature);
      EXPECT_EQ(a.evaluated[i].row_scores, b.evaluated[i].row_scores);
    }
  }
}

TEST(DeterminismTest, ParallelRepeatedRunsIdentical) {
  const DetWorld& w = World();
  SearchOptions options = Options(/*threads=*/8);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, options);
  for (auto* runner : {&RunNaive, &RunBaseline, &RunFastTopK}) {
    SearchResult a = runner(prep, options);
    SearchResult b = runner(prep, options);
    ExpectIdenticalTopK(a, b, "parallel-repeat");
    ExpectInvariantStatsEqual(a.profile, b.profile, "parallel-repeat");
  }
}

TEST(DeterminismTest, NaiveParallelBitIdenticalToSerial) {
  const DetWorld& w = World();
  SearchOptions serial = Options(1);
  SearchOptions parallel = Options(8);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, serial);
  SearchResult a = RunNaive(prep, serial);
  SearchResult b = RunNaive(prep, parallel);
  ExpectIdenticalTopK(a, b, "naive-1v8");
  ExpectAllStatsEqual(a.profile, b.profile, "naive-1v8");
  // Session records merge in candidate order: identical too.
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_EQ(a.evaluated[i].signature, b.evaluated[i].signature);
    EXPECT_EQ(a.evaluated[i].row_scores, b.evaluated[i].row_scores);
  }
}

TEST(DeterminismTest, BaselineParallelBitIdenticalToSerial) {
  const DetWorld& w = World();
  SearchOptions serial = Options(1);
  SearchOptions parallel = Options(8);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, serial);
  SearchResult a = RunBaseline(prep, serial);
  SearchResult b = RunBaseline(prep, parallel);
  ExpectIdenticalTopK(a, b, "baseline-1v8");
  // Speculative replay drops outcomes past the stop rank, so even the
  // Thm-1 minimal evaluation count survives parallelism exactly.
  ExpectAllStatsEqual(a.profile, b.profile, "baseline-1v8");
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
}

TEST(DeterminismTest, FastTopKParallelMatchesSerialTopK) {
  const DetWorld& w = World();
  SearchOptions serial = Options(1);
  SearchOptions parallel = Options(8);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, serial);
  SearchResult a = RunFastTopK(prep, serial);
  SearchResult b = RunFastTopK(prep, parallel);
  // Frozen skip decisions can shift work between "evaluated" and
  // "skipped", but never change the returned queries or their scores.
  ASSERT_EQ(a.topk.size(), b.topk.size());
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.topk[i].score, b.topk[i].score) << "rank " << i;
  }
  EXPECT_EQ(a.profile.candidates_enumerated, b.profile.candidates_enumerated);
  EXPECT_EQ(a.profile.batches, b.profile.batches);
  // Prop 2 safety: parallel skipping never skips its way past work the
  // serial path had to do to certify the answer.
  EXPECT_LE(b.profile.candidates_evaluated + b.profile.skipped_by_condition,
            a.profile.candidates_enumerated);
}

// Every non-seconds counter row on the DetWorld fixture, pinned across
// commits. Columns: one-worker NAIVE, BASELINE and FASTTOPK, FASTTOPK
// with approx_epsilon = 0.05, then eight-worker NAIVE and BASELINE
// (bit-identical to one worker by construction). A change to the
// serial schedule shows up here as a counter diff: update a value only
// in a change that means to alter that counter.
struct GoldenRow {
  const char* counter;
  int64_t values[6];
};

constexpr GoldenRow kGoldenCounters[] = {
    // clang-format off
    //                               naive/1 baseline/1 fast/1 fast-eps/1 naive/8 baseline/8
    {"candidates_enumerated",     {   493,    493,   493,   493,    493,   493}},
    {"candidates_evaluated",      {   493,     27,    27,     0,    493,    27}},
    {"query_row_evals",           {  1479,     81,    81,     0,   1479,    81}},
    {"skipped_by_condition",      {     0,      0,     6,     6,      0,     0}},
    {"batches",                   {     0,      0,     4,     4,      0,     0}},
    {"bound_updates",             {     1,      1,     1,     1,      1,     1}},
    {"rows_scanned",              {248910,   8340,  5920,     0, 248910,  8340}},
    {"hash_lookups",              { 80914,   2880,  2880,     0,  80914,  2880}},
    {"hash_inserts",              {148181,   6618,  4792,     0, 148181,  6618}},
    {"postings_scanned",          {137765,   7803,  5795,     0, 137765,  7803}},
    {"cache_hits",                {     0,      0,    18,     0,      0,     0}},
    {"cache_misses",              {     0,      0,    52,     0,      0,     0}},
    {"cache_insertions",          {     0,      0,    25,     0,      0,     0}},
    {"cache_evictions",           {     0,      0,     0,     0,      0,     0}},
    {"cache_peak_bytes",          {     0,      0, 29384,     0,      0,     0}},
    {"approx_sampled",            {     0,      0,     0,     9,      0,     0}},
    {"approx_skipped",            {     0,      0,     0,    18,      0,     0}},
    {"approx_escalated",          {     0,      0,     0,     0,      0,     0}},
    {"approx_samples",            {     0,      0,     0,  3100,      0,     0}},
    {"approx_deadline_fallbacks", {     0,      0,     0,     0,      0,     0}},
    {"model_cost",                {452825,  16143, 11715,     0, 452825, 16143}},
    {"critical_subs_cached",      {     0,      0,     7,     0,      0,     0}},
    // clang-format on
};

TEST(DeterminismTest, SerialCountersMatchGoldenTable) {
  const DetWorld& w = World();
  const SearchOptions one = Options(1);
  const SearchOptions eight = Options(8);
  SearchOptions approx = Options(1);
  approx.approx_epsilon = 0.05;
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, one);
  const std::vector<std::pair<std::string, obs::QueryProfile>> columns = {
      {"naive/1", RunNaive(prep, one).profile},
      {"baseline/1", RunBaseline(prep, one).profile},
      {"fasttopk/1", RunFastTopK(prep, one).profile},
      {"fasttopk-eps/1", RunFastTopK(prep, approx).profile},
      {"naive/8", RunNaive(prep, eight).profile},
      {"baseline/8", RunBaseline(prep, eight).profile}};
  size_t rows_checked = 0;
#define S4_GOLDEN_ROW(type, name, ...)                                   \
  if constexpr (!std::is_same_v<type, double>) {                         \
    const GoldenRow* row = nullptr;                                      \
    for (const GoldenRow& g : kGoldenCounters) {                         \
      if (std::string(g.counter) == #name) row = &g;                     \
    }                                                                    \
    if (row == nullptr) {                                                \
      ADD_FAILURE() << "no golden row for counter " #name;               \
    } else {                                                             \
      ++rows_checked;                                                    \
      for (size_t c = 0; c < columns.size(); ++c) {                      \
        EXPECT_EQ(static_cast<int64_t>(columns[c].second.name),          \
                  row->values[c])                                        \
            << columns[c].first << " " #name;                            \
      }                                                                  \
    }                                                                    \
  }
  S4_SEARCH_COUNTERS(S4_GOLDEN_ROW)
#undef S4_GOLDEN_ROW
  EXPECT_EQ(rows_checked, std::size(kGoldenCounters));
}

using Runner = SearchResult (*)(PreparedSearch&, const SearchOptions&);

struct NamedRunner {
  const char* name;
  Runner run;
};

constexpr NamedRunner kRunners[] = {{"naive", &RunNaive},
                                    {"baseline", &RunBaseline},
                                    {"fasttopk", &RunFastTopK}};

// SearchOptions::progress: snapshots stream at step boundaries; the
// remaining upper bound only falls, the enumeration size is known from
// the first snapshot on, and the last snapshot has seen every
// evaluation. One worker runs the serial schedule: NAIVE and BASELINE
// report after every candidate, FASTTOPK after every batch.
TEST(DeterminismTest, ProgressSnapshotsKeepTheirContract) {
  const DetWorld& w = World();
  for (int32_t threads : {1, 4}) {
    SearchOptions options = Options(threads);
    PreparedSearch prep(*w.index, *w.graph, *w.sheet, options);
    for (const NamedRunner& runner : kRunners) {
      const std::string label =
          std::string(runner.name) + "/" + std::to_string(threads);
      std::vector<SearchProgress> snaps;
      options.progress = [&snaps](const SearchProgress& p) {
        snaps.push_back(p);
      };
      const SearchResult result = runner.run(prep, options);
      ASSERT_FALSE(snaps.empty()) << label;
      for (size_t i = 0; i < snaps.size(); ++i) {
        EXPECT_EQ(snaps[i].enumerated, result.profile.candidates_enumerated)
            << label << " snapshot " << i;
        if (i == 0) continue;
        EXPECT_LE(snaps[i].remaining_upper_bound,
                  snaps[i - 1].remaining_upper_bound)
            << label << " snapshot " << i;
        EXPECT_GE(snaps[i].evaluated, snaps[i - 1].evaluated)
            << label << " snapshot " << i;
      }
      EXPECT_EQ(snaps.back().evaluated, result.profile.candidates_evaluated)
          << label;
      if (runner.run == &RunFastTopK) {
        EXPECT_EQ(static_cast<int64_t>(snaps.size()), result.profile.batches)
            << label;
      } else if (threads == 1) {
        EXPECT_EQ(static_cast<int64_t>(snaps.size()),
                  result.profile.candidates_evaluated)
            << label;
      }
    }
  }
}

// Cancelling the stop token inside the m-th snapshot of a one-worker
// NAIVE or BASELINE run stops it before the next evaluation: the stop
// is polled at every step boundary, and inline a step is one candidate.
TEST(DeterminismTest, StopInsideProgressStopsSerialRunAtOnce) {
  const DetWorld& w = World();
  SearchOptions options = Options(/*threads=*/1);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, options);
  for (const NamedRunner& runner : kRunners) {
    if (runner.run == &RunFastTopK) continue;
    const int64_t full = runner.run(prep, options).profile.candidates_evaluated;
    for (int64_t m : {1, 2, 5}) {
      const std::string label =
          std::string(runner.name) + " m=" + std::to_string(m);
      ASSERT_GT(full, m) << label;
      StopToken stop;
      int64_t seen = 0;
      SearchOptions stopping = options;
      stopping.stop = &stop;
      stopping.progress = [&](const SearchProgress&) {
        if (++seen == m) stop.Cancel();
      };
      const SearchResult result = runner.run(prep, stopping);
      EXPECT_TRUE(result.interrupted) << label;
      EXPECT_EQ(result.profile.candidates_evaluated, m) << label;
      EXPECT_EQ(seen, m) << label;
    }
  }
}

}  // namespace
}  // namespace s4
