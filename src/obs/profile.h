#ifndef S4_OBS_PROFILE_H_
#define S4_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/search_counters.h"

namespace s4::obs {

// Per-shard slice of a distributed request, filled by the coordinator
// from the exchange bookkeeping it already keeps: which slice, how long
// the exchange took end to end, how much Stage-I/II work the shard
// reported, and whether the slice degraded (lost) or went approximate.
struct ShardProfile {
  int32_t shard_index = 0;
  double wall_seconds = 0.0;  // coordinator-side exchange wall time
  int64_t enumerated = 0;     // shard slice size (Stage-I output)
  int64_t evaluated = 0;      // shard Stage-II evaluations
  int64_t partials = 0;       // streamed kShardPartial frames merged
  bool lost = false;          // slice unreachable after retries
  bool approximate = false;   // shard answered with sampled intervals
};

// Per-request resource accounting: where one search spent its time and
// what it burned. The counters are the table in obs/search_counters.h,
// accumulated by the strategies and published to the `s4_*` registry
// from the same struct, so profile and registry reconcile by
// construction. The service stamps the total/queue wall times; the
// coordinator folds shard profiles with Accumulate (shards are not
// merged) and appends the per-shard breakdown.
struct QueryProfile : SearchCounters {
  // Distributed fan-out breakdown, coordinator-filled; empty for
  // single-node requests.
  std::vector<ShardProfile> shards;
};

// One ranked hit's score bracket for the explain report: degenerate
// [score, score] @ 1.0 for exact hits, the sampling interval when the
// hit was resolved by the estimator.
struct ProfileHit {
  double score = 0.0;
  double interval_lo = 0.0;
  double interval_hi = 0.0;
  double interval_confidence = 1.0;
  bool approximate = false;
  std::string label;  // SQL text or signature
};

// Human-readable explain report of a finished request: one block per
// counter-table section (timings, work, cache, sampler), per-shard
// fan-out lines, and — when `hits` is non-empty — per-hit score
// brackets (error bars) for approximate results.
std::string FormatProfile(const QueryProfile& profile,
                          const std::vector<ProfileHit>& hits = {});

}  // namespace s4::obs

#endif  // S4_OBS_PROFILE_H_
