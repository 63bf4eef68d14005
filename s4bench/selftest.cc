// Tests of the benchmark itself: the output checks must reject wrong
// answers, and core_cold's exact work counts must repeat for one seed.
#include <gtest/gtest.h>

#include <cmath>

#include "checks.h"
#include "datagen/synthetic.h"
#include "s4/s4.h"
#include "workloads.h"

namespace s4bench {
namespace {

struct Fixture {
  s4::Database db;
  std::unique_ptr<s4::S4System> system;
  std::vector<Sheet> sheets;
};

Fixture& Shared() {
  static Fixture* f = [] {
    auto* x = new Fixture;
    s4::datagen::CsuppSimOptions o;
    o.seed = 42;
    x->db = s4::datagen::MakeCsuppSim(o).value();
    x->system = s4::S4System::Create(x->db).value();
    x->sheets = MakeSheets(*x->system, 3, 6);
    return x;
  }();
  return *f;
}

s4::SearchOptions Options(int32_t k) {
  s4::SearchOptions o;
  o.k = k;
  o.enumeration.max_tree_size = 4;
  o.num_threads = 1;
  return o;
}

std::vector<std::string> CheckAll(const Sheet& sheet,
                                  const std::vector<s4::ScoredQuery>& topk,
                                  const std::vector<s4::ScoredQuery>& naive) {
  const Fixture& f = Shared();
  ReferenceScorer ref(f.db);
  std::vector<std::string> errors;
  CheckOrderAndBounds(HitsOf(topk), "t", &errors);
  CheckAgainstReference(ref, sheet.es.sheet, topk, "t", &errors);
  CheckSourceQuery(ref, sheet.es.sheet, sheet.es.source_query, HitsOf(topk),
                   10, "t", &errors);
  CheckSameHits(HitsOf(topk), HitsOf(naive), "t", &errors);
  return errors;
}

TEST(ChecksTest, AcceptTheSystemsAnswers) {
  const Fixture& f = Shared();
  ASSERT_FALSE(f.sheets.empty());
  for (const Sheet& s : f.sheets) {
    auto fast = f.system->Search(s.es.sheet, Options(10));
    auto naive = f.system->Search(s.es.sheet, Options(10),
                                  s4::S4System::Strategy::kNaive);
    const std::vector<std::string> errors = CheckAll(s, fast.topk, naive.topk);
    EXPECT_TRUE(errors.empty()) << errors.front();
  }
}

TEST(ChecksTest, RejectANudgedScore) {
  const Fixture& f = Shared();
  for (const Sheet& s : f.sheets) {
    auto fast = f.system->Search(s.es.sheet, Options(10));
    auto naive = f.system->Search(s.es.sheet, Options(10),
                                  s4::S4System::Strategy::kNaive);
    ASSERT_GE(fast.topk.size(), 2u);
    std::vector<s4::ScoredQuery> bad = fast.topk;
    bad[1].score = std::nextafter(bad[1].score, 1e9);
    EXPECT_FALSE(CheckAll(s, bad, naive.topk).empty());
  }
}

TEST(ChecksTest, RejectAHitSwappedForALowerRankedCandidate) {
  const Fixture& f = Shared();
  int32_t tested = 0;
  for (const Sheet& s : f.sheets) {
    auto fast = f.system->Search(s.es.sheet, Options(10));
    auto naive = f.system->Search(s.es.sheet, Options(10),
                                  s4::S4System::Strategy::kNaive);
    auto deeper = f.system->Search(s.es.sheet, Options(11));
    if (deeper.topk.size() < 11u) continue;  // no lower-ranked candidate
    ++tested;
    // The 11th candidate in place of the 10th: order and scores stay
    // plausible, only the exhaustive comparison can tell.
    std::vector<s4::ScoredQuery> last = fast.topk;
    last.back() = deeper.topk.back();
    EXPECT_FALSE(CheckAll(s, last, naive.topk).empty());
    // ... and in place of the 2nd it also breaks the order.
    std::vector<s4::ScoredQuery> mid = fast.topk;
    mid[1] = deeper.topk.back();
    std::vector<std::string> order;
    CheckOrderAndBounds(HitsOf(mid), "t", &order);
    EXPECT_FALSE(order.empty());
  }
  EXPECT_GT(tested, 0);
}

TEST(CoreColdTest, ExactCountsRepeatForOneSeed) {
  const CoreCounts a = CoreColdSampleCounts(7);
  const CoreCounts b = CoreColdSampleCounts(7);
  EXPECT_GT(a.evaluated, 0);
  EXPECT_GT(a.hash_lookups, 0);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace s4bench
