#ifndef S4_OBS_SEARCH_COUNTERS_H_
#define S4_OBS_SEARCH_COUNTERS_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace s4::obs {

// The per-search counter table: the one definition of what a search
// reports. The struct, its merge, the registry publish, the v3 wire
// profile section, the explain report and the slow-log JSON are all
// generated from these rows (DESIGN.md "Observability"). Adding a
// counter is one row; every consumer picks it up.
//
// X(type, name, merge, registry, section, label)
//   type      double rows are durations in seconds and must be named
//             *_seconds; integer rows are counts.
//   merge     Sum: Accumulate adds. Max: keeps the larger (a peak).
//             Wall: not merged — wall clocks of concurrent runs do not
//             add; the service and coordinator stamp them.
//   registry  Process-wide metric the finished run publishes into: a
//             counter for count rows, a histogram for seconds rows.
//             nullptr = not published. Every Sum row is published.
//   section   Explain-report block (FormatProfile); None = not shown.
//   label     Explain-report line label.
//
// Rows riding the v3 profile wire section, in wire order. The layout is
// frozen by the protocol version: append-only, and only with a bump.
#define S4_WIRE_COUNTERS(X)                                                  \
  X(double, total_seconds, Wall, nullptr, Timing, "total wall")              \
  X(double, queue_seconds, Wall, nullptr, Timing, "queued (admission)")      \
  X(double, enum_seconds, Sum, "s4_enum_seconds", Timing,                    \
    "stage I (enumerate)")                                                   \
  X(double, eval_seconds, Sum, "s4_eval_seconds", Timing,                    \
    "stage II (evaluate)")                                                   \
  X(int64_t, candidates_enumerated, Sum, "s4_candidates_enumerated_total",   \
    Work, "candidates enumerated")                                           \
  X(int64_t, candidates_evaluated, Sum, "s4_candidates_evaluated_total",     \
    Work, "candidates evaluated")                                            \
  X(int64_t, query_row_evals, Sum, "s4_query_row_evals_total", Work,         \
    "query-row evals")                                                       \
  X(int64_t, skipped_by_condition, Sum, "s4_skipped_by_condition_total",     \
    Work, "skipped by condition")                                            \
  X(int64_t, batches, Sum, "s4_batches_total", Work, "batches")              \
  X(int64_t, bound_updates, Sum, "s4_bound_updates_total", Work,             \
    "bound updates")                                                         \
  X(int64_t, rows_scanned, Sum, "s4_rows_scanned_total", Work,               \
    "rows scanned")                                                          \
  X(int64_t, hash_lookups, Sum, "s4_hash_lookups_total", Work, "hash probes") \
  X(int64_t, hash_inserts, Sum, "s4_hash_inserts_total", Work,               \
    "hash inserts")                                                          \
  X(int64_t, postings_scanned, Sum, "s4_postings_scanned_total", Work,       \
    "postings scanned")                                                      \
  X(int64_t, cache_hits, Sum, "s4_cache_probe_hits_total", Cache, "hits")    \
  X(int64_t, cache_misses, Sum, "s4_cache_probe_misses_total", Cache,        \
    "misses")                                                                \
  X(int64_t, cache_insertions, Sum, "s4_cache_insertions_total", Cache,      \
    "insertions")                                                            \
  X(int64_t, cache_evictions, Sum, "s4_cache_evictions_total", Cache,        \
    "evictions")                                                             \
  X(uint64_t, cache_peak_bytes, Max, nullptr, Cache, "peak bytes")           \
  X(int64_t, approx_sampled, Sum, "s4_approx_candidates_sampled_total",      \
    Sampler, "candidates sampled")                                           \
  X(int64_t, approx_skipped, Sum, "s4_approx_skipped_total", Sampler,        \
    "skipped on interval")                                                   \
  X(int64_t, approx_escalated, Sum, "s4_approx_escalated_total", Sampler,    \
    "escalated to exact")                                                    \
  X(int64_t, approx_samples, Sum, "s4_approx_samples_total", Sampler,        \
    "join rows walked")                                                      \
  X(int64_t, approx_deadline_fallbacks, Sum,                                 \
    "s4_approx_deadline_fallbacks_total", Sampler, "deadline fallbacks")

// Rows kept in-process only (never on the wire, not in the explain
// report): model cost actually incurred (sum of cost(Q, M), Eq. 12-13)
// and critical sub-PJ queries cached by FASTTOPK.
#define S4_LOCAL_COUNTERS(X)                                                 \
  X(int64_t, model_cost, Sum, "s4_model_cost_total", None, nullptr)          \
  X(int64_t, critical_subs_cached, Sum, "s4_critical_subs_cached_total",     \
    None, nullptr)

#define S4_SEARCH_COUNTERS(X) S4_WIRE_COUNTERS(X) S4_LOCAL_COUNTERS(X)

// Explain-report blocks, in print order. Sampler is printed only when
// one of its rows is non-zero.
enum class ExplainSection { Timing, Work, Cache, Sampler, None };

// Everything one search reports, flat. Strategies accumulate into it
// directly; per-candidate deltas from pool workers merge with
// Accumulate in deterministic candidate order.
struct SearchCounters {
#define S4_FIELD(type, name, ...) type name = 0;
  S4_SEARCH_COUNTERS(S4_FIELD)
#undef S4_FIELD

  // Merges another run's counters into this one per each row's merge
  // rule (the coordinator folds shard profiles, strategies fold
  // per-candidate outcomes, OR-semantics folds subset searches).
  void Accumulate(const SearchCounters& o) {
#define S4_MERGE(type, name, merge, ...) Merge##merge(&name, o.name);
    S4_SEARCH_COUNTERS(S4_MERGE)
#undef S4_MERGE
  }

 private:
  template <typename T>
  static void MergeSum(T* into, T v) {
    *into += v;
  }
  template <typename T>
  static void MergeMax(T* into, T v) {
    *into = std::max(*into, v);
  }
  template <typename T>
  static void MergeWall(T*, T) {}
};

// Bulk-publishes one finished search into the process-wide registry:
// s4_searches_total plus every row with a registry name. One batch of
// striped adds per search, never per candidate, so the hot path stays
// free of shared-line traffic.
void PublishSearch(const SearchCounters& counters);

// Appends the rows as JSON members ("name":value,...; no braces), the
// slow-log "profile" object: seconds rows become "<stem>_ms" in
// milliseconds, count rows keep their field name.
void AppendCountersJson(const SearchCounters& counters, std::string* out);

}  // namespace s4::obs

#endif  // S4_OBS_SEARCH_COUNTERS_H_
