// Golden tests pinning the two external renderings of a QueryProfile:
// the v3 wire section and the FormatProfile explain text. The profile
// gives every wire field a distinct value, so a field that moves, drops
// out, changes width or changes its label breaks the byte or text
// comparison. The expected strings were captured from the hand-written
// codec and formatter; any generated replacement must reproduce them.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "obs/profile.h"

namespace s4 {
namespace {

obs::QueryProfile GoldenProfile() {
  obs::QueryProfile p;
  p.total_seconds = 0.125;
  p.queue_seconds = 0.0625;
  p.enum_seconds = 0.03125;
  p.eval_seconds = 0.046875;
  p.candidates_enumerated = 101;
  p.candidates_evaluated = 102;
  p.query_row_evals = 103;
  p.skipped_by_condition = 104;
  p.batches = 105;
  p.bound_updates = 106;
  p.rows_scanned = 107;
  p.hash_lookups = 108;
  p.hash_inserts = 109;
  p.postings_scanned = 110;
  p.cache_hits = 111;
  p.cache_misses = 112;
  p.cache_insertions = 113;
  p.cache_evictions = 114;
  p.cache_peak_bytes = 115;
  p.approx_sampled = 116;
  p.approx_skipped = 117;
  p.approx_escalated = 118;
  p.approx_samples = 119;
  p.approx_deadline_fallbacks = 120;
  obs::ShardProfile a;
  a.shard_index = 0;
  a.wall_seconds = 0.25;
  a.enumerated = 201;
  a.evaluated = 202;
  a.partials = 203;
  a.approximate = true;
  obs::ShardProfile b;
  b.shard_index = 1;
  b.wall_seconds = 0.5;
  b.enumerated = 204;
  b.evaluated = 205;
  b.partials = 206;
  b.lost = true;
  p.shards = {a, b};
  return p;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

TEST(ObsProfileGoldenTest, WireSectionBytes) {
  // The profile section is the tail a has_profile response carries over
  // an otherwise identical profile-less one.
  net::NetSearchResponse resp;
  const std::string bare = net::EncodeSearchResponseFrame(resp, 7);
  resp.has_profile = true;
  resp.profile = GoldenProfile();
  const std::string framed = net::EncodeSearchResponseFrame(resp, 7);
  ASSERT_GT(framed.size(), bare.size());
  EXPECT_EQ(static_cast<uint8_t>(framed[4]), 3);  // protocol version
  EXPECT_EQ(Hex(framed.substr(bare.size())),
            "000000000000c03f"  // total_seconds
            "000000000000b03f"  // queue_seconds
            "000000000000a03f"  // enum_seconds
            "000000000000a83f"  // eval_seconds
            "6500000000000000"  // candidates_enumerated
            "6600000000000000"  // candidates_evaluated
            "6700000000000000"  // query_row_evals
            "6800000000000000"  // skipped_by_condition
            "6900000000000000"  // batches
            "6a00000000000000"  // bound_updates
            "6b00000000000000"  // rows_scanned
            "6c00000000000000"  // hash_lookups
            "6d00000000000000"  // hash_inserts
            "6e00000000000000"  // postings_scanned
            "6f00000000000000"  // cache_hits
            "7000000000000000"  // cache_misses
            "7100000000000000"  // cache_insertions
            "7200000000000000"  // cache_evictions
            "7300000000000000"  // cache_peak_bytes
            "7400000000000000"  // approx_sampled
            "7500000000000000"  // approx_skipped
            "7600000000000000"  // approx_escalated
            "7700000000000000"  // approx_samples
            "7800000000000000"  // approx_deadline_fallbacks
            "02000000"          // shard count
            "00000000" "000000000000d03f" "c900000000000000"
            "ca00000000000000" "cb00000000000000" "00" "01"
            "01000000" "000000000000e03f" "cc00000000000000"
            "cd00000000000000" "ce00000000000000" "01" "00");
}

TEST(ObsProfileGoldenTest, ExplainText) {
  obs::ProfileHit exact;
  exact.score = 2.5;
  exact.interval_lo = exact.interval_hi = 2.5;
  exact.label = "SELECT exact";
  obs::ProfileHit approx;
  approx.score = 1.25;
  approx.interval_lo = 1.0;
  approx.interval_hi = 1.5;
  approx.interval_confidence = 0.95;
  approx.approximate = true;
  approx.label = "SELECT sampled";
  EXPECT_EQ(obs::FormatProfile(GoldenProfile(), {exact, approx}),
            "query profile\n"
            "  total wall                   125.000 ms\n"
            "  queued (admission)            62.500 ms\n"
            "  stage I (enumerate)           31.250 ms\n"
            "  stage II (evaluate)           46.875 ms\n"
            "work\n"
            "  candidates enumerated               101\n"
            "  candidates evaluated                102\n"
            "  query-row evals                     103\n"
            "  skipped by condition                104\n"
            "  batches                             105\n"
            "  bound updates                       106\n"
            "  rows scanned                        107\n"
            "  hash probes                         108\n"
            "  hash inserts                        109\n"
            "  postings scanned                    110\n"
            "cache\n"
            "  hits                                111\n"
            "  misses                              112\n"
            "  insertions                          113\n"
            "  evictions                           114\n"
            "  peak bytes                          115\n"
            "sampler\n"
            "  candidates sampled                  116\n"
            "  skipped on interval                 117\n"
            "  escalated to exact                  118\n"
            "  join rows walked                    119\n"
            "  deadline fallbacks                  120\n"
            "shards\n"
            "  shard 0     250.000 ms  enum=201 eval=202 partials=203"
            " [approx]\n"
            "  shard 1     500.000 ms  enum=204 eval=205 partials=206"
            " [lost]\n"
            "hits\n"
            "   1. score=2.5000  SELECT exact\n"
            "   2. score=1.2500 in [1.0000, 1.5000] @ 95% conf  "
            "SELECT sampled\n");
}

}  // namespace
}  // namespace s4
