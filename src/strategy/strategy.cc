#include "strategy/strategy.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/topk_heap.h"
#include "exec/cost_model.h"
#include "obs/trace.h"
#include "strategy/strategy_internal.h"

namespace s4 {

Status ValidateSearchSpec(const SearchSpec& spec) {
  // Every double field first: NaN slips through ordinary range
  // comparisons, and an infinite epsilon or deadline reaches size_t and
  // nanosecond casts downstream.
  const std::pair<const char*, double> doubles[] = {
      {"alpha", spec.score.alpha},
      {"exact_match_bonus", spec.score.exact_match_bonus},
      {"epsilon", spec.epsilon},
      {"deadline_seconds", spec.deadline_seconds},
      {"approx_epsilon", spec.approx_epsilon},
      {"approx_confidence", spec.approx_confidence}};
  for (const auto& [name, v] : doubles) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          StrFormat("%s must be finite, got %f", name, v));
    }
  }
  if (spec.k <= 0) {
    return Status::InvalidArgument(
        StrFormat("k must be positive, got %d", spec.k));
  }
  if (spec.cache_budget_bytes == 0) {
    return Status::InvalidArgument("cache_budget_bytes must be positive");
  }
  if (spec.epsilon <= 0.0) {
    return Status::InvalidArgument(
        StrFormat("epsilon must be positive, got %f", spec.epsilon));
  }
  if (spec.deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        StrFormat("deadline_seconds must be non-negative, got %f",
                  spec.deadline_seconds));
  }
  if (spec.score.alpha < 0.0 || spec.score.alpha > 1.0) {
    return Status::InvalidArgument(
        StrFormat("alpha must be in [0, 1], got %f", spec.score.alpha));
  }
  if (spec.score.spelling_edits < 0) {
    return Status::InvalidArgument(
        StrFormat("spelling_edits must be non-negative, got %d",
                  spec.score.spelling_edits));
  }
  if (spec.enumeration.max_tree_size < 1) {
    return Status::InvalidArgument(
        StrFormat("max_tree_size must be >= 1, got %d",
                  spec.enumeration.max_tree_size));
  }
  if (spec.approx_epsilon < 0.0) {
    return Status::InvalidArgument(
        StrFormat("approx_epsilon must be non-negative, got %f",
                  spec.approx_epsilon));
  }
  if (spec.approx_confidence <= 0.0 || spec.approx_confidence > 1.0) {
    return Status::InvalidArgument(
        StrFormat("approx_confidence must be in (0, 1], got %f",
                  spec.approx_confidence));
  }
  if (spec.sample_budget <= 0) {
    return Status::InvalidArgument(
        StrFormat("sample_budget must be positive, got %lld",
                  static_cast<long long>(spec.sample_budget)));
  }
  if (spec.approx_epsilon > 0.0 && spec.drop_zero_rows) {
    // The sampler mirrors the evaluator's keep-zero-rows inner-join
    // semantics; the drop-zero ablation would make its lower bounds
    // unsound.
    return Status::InvalidArgument(
        "approx_epsilon > 0 is incompatible with drop_zero_rows");
  }
  if (spec.shard_count < 1) {
    return Status::InvalidArgument(
        StrFormat("shard_count must be >= 1, got %d", spec.shard_count));
  }
  if (spec.shard_index < 0 || spec.shard_index >= spec.shard_count) {
    return Status::InvalidArgument(
        StrFormat("shard_index must be in [0, %d), got %d",
                  spec.shard_count, spec.shard_index));
  }
  return Status::OK();
}

int32_t ShardOfSignature(std::string_view signature, int32_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<int32_t>(
      FingerprintString(signature) %
      static_cast<uint64_t>(shard_count));
}

PreparedSearch::PreparedSearch(const IndexSet& index,
                               const SchemaGraph& graph,
                               const ExampleSpreadsheet& sheet,
                               const SearchOptions& options)
    : ctx(index, sheet, options.score) {
  WallTimer timer;
  obs::SpanTimer span(options.trace, "stage1", "enumerate");
  EnumerationResult result =
      EnumerateCandidates(graph, ctx, options.enumeration);
  candidates = std::move(result.candidates);
  enum_stats = result.stats;
  if (options.shard_count > 1) {
    // Candidate-space sharding: keep only this shard's slice. Done
    // before the sort so candidates_enumerated reports the slice size and
    // per-shard counts sum to the single-node total.
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&options](const CandidateQuery& c) {
                         return ShardOfSignature(c.query.signature(),
                                                 options.shard_count) !=
                                options.shard_index;
                       }),
        candidates.end());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const CandidateQuery& a, const CandidateQuery& b) {
              if (a.upper_bound != b.upper_bound) {
                return a.upper_bound > b.upper_bound;
              }
              return a.query.signature() < b.query.signature();
            });
  enum_seconds = timer.ElapsedSeconds();
  if (span.enabled()) {
    span.AddArg("candidates", std::to_string(candidates.size()));
  }
}

namespace internal {

std::vector<RuntimeCandidate> MakePlainRuntime(
    const std::vector<CandidateQuery>& candidates) {
  std::vector<RuntimeCandidate> rts;
  rts.reserve(candidates.size());
  for (const CandidateQuery& c : candidates) {
    RuntimeCandidate rt;
    rt.cand = &c;
    rt.ub = c.upper_bound;
    rts.push_back(std::move(rt));
  }
  return rts;
}

void SortRuntime(std::vector<RuntimeCandidate>* rts) {
  std::sort(rts->begin(), rts->end(),
            [](const RuntimeCandidate& a, const RuntimeCandidate& b) {
              if (a.ub != b.ub) return a.ub > b.ub;
              return a.cand->query.signature() < b.cand->query.signature();
            });
}

// One candidate evaluation is the atomic unit every driver schedules
// around: stop-token polls and frozen-skip decisions happen only at the
// drivers' step / critical-group boundaries, never inside RowScores.
// The evaluator's Stage-II batched probe loop keeps the serial emit
// order and counter values, so upper bounds, skip conditions, and
// early-termination tests see bit-identical inputs on every strategy.
EvalOutcome EvaluateCandidate(PreparedSearch& prep,
                              const RuntimeCandidate& rt,
                              SubQueryCache* cache, bool offer_to_cache,
                              const SearchOptions& options) {
  const CandidateQuery& cand = *rt.cand;
  EvalOutcome out;
  obs::SearchCounters* counters = &out.counters;
  obs::SpanTimer span(options.trace, "stage2", "evaluate_candidate");
  if (span.enabled()) {
    span.AddArg("query", cand.query.signature());
  }
  Evaluator evaluator(prep.ctx);
  EvalOptions eopts;
  eopts.es_rows = rt.es_rows;
  eopts.offer_to_cache = offer_to_cache;
  eopts.drop_zero_rows = options.drop_zero_rows;
  eopts.trace = options.trace;

  if (cache != nullptr) {
    counters->model_cost += EvaluationCostWithCache(
        cand.query, cand.query.EnumerateSubQueries(), *cache, prep.ctx,
        rt.suffix);
  } else {
    counters->model_cost += EvaluationCost(cand.query, prep.ctx);
  }

  EvalCounters eval;
  std::vector<double> row_scores =
      evaluator.RowScores(cand.query, cache, &eval, eopts);
  AddEvalCounters(eval, counters);

  // Merge prior scores for rows outside the evaluated subset.
  if (rt.prior_row_scores != nullptr && !rt.es_rows.empty()) {
    std::vector<bool> evaluated(row_scores.size(), false);
    for (int32_t t : rt.es_rows) evaluated[t] = true;
    for (size_t t = 0; t < row_scores.size(); ++t) {
      if (!evaluated[t] && t < rt.prior_row_scores->size()) {
        row_scores[t] = (*rt.prior_row_scores)[t];
      }
    }
  }

  ++counters->candidates_evaluated;
  counters->query_row_evals += rt.es_rows.empty()
                                ? prep.ctx.NumEsRows()
                                : static_cast<int64_t>(rt.es_rows.size());

  ScoredQuery& sq = out.sq;
  sq.query = cand.query;
  sq.upper_bound = rt.ub;
  sq.column_score = cand.column_score;
  for (double v : row_scores) sq.row_score += v;
  sq.score = CombineScore(sq.row_score, sq.column_score,
                          options.score.alpha, cand.query.tree().size());
  // Exact hits carry a degenerate certain interval so downstream
  // consumers (wire, coordinator merge) read one uniform field.
  sq.interval.lo = sq.interval.hi = sq.score;
  sq.interval.confidence = 1.0;
  out.record = EvaluatedRecord{cand.query.signature(), std::move(row_scores)};
  return out;
}

void AddEvalCounters(const EvalCounters& eval,
                     obs::SearchCounters* counters) {
  counters->rows_scanned += eval.rows_scanned;
  counters->hash_lookups += eval.hash_lookups;
  counters->hash_inserts += eval.hash_inserts;
  counters->postings_scanned += eval.postings_scanned;
}

void FinishRun(const PreparedSearch& prep, const WallTimer& timer,
               const SubQueryCache* cache, TopKHeap<ScoredQuery>* topk,
               SearchResult* result) {
  for (auto& [score, sq] : topk->TakeSortedDescending()) {
    (void)score;
    result->topk.push_back(std::move(sq));
  }
  obs::QueryProfile& p = result->profile;
  p.eval_seconds = timer.ElapsedSeconds();
  p.candidates_enumerated = static_cast<int64_t>(prep.candidates.size());
  p.enum_seconds = prep.enum_seconds;
  if (cache != nullptr) {
    const CacheStats cs = cache->stats();
    p.cache_hits = cs.hits;
    p.cache_misses = cs.misses;
    p.cache_insertions = cs.insertions;
    p.cache_evictions = cs.evictions;
    p.cache_peak_bytes = cs.peak_bytes;
  }
  obs::PublishSearch(p);
}

Executor::Executor(const SearchOptions& options, size_t work_items) {
  // The injected pool's size, else the machine's: the auto count and the
  // cap on an explicit one.
  const int32_t cap = options.pool != nullptr ? options.pool->num_threads()
                                              : ThreadPool::DefaultThreads();
  workers_ = options.num_threads > 0 ? std::min(options.num_threads, cap) : cap;
  if (work_items <= 1 || workers_ <= 1) return;
  if (options.pool != nullptr) {
    pool_ = options.pool;
  } else {
    owned_ = std::make_unique<ThreadPool>(workers_);
    pool_ = owned_.get();
  }
}

void Executor::ParallelFor(size_t n,
                           const std::function<void(size_t)>& fn) const {
  if (pool_ == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->ParallelFor(n, fn);
}

void MergeOutcome(EvalOutcome&& outcome, SearchResult* result,
                  TopKHeap<ScoredQuery>* topk) {
  result->profile.Accumulate(outcome.counters);
  result->evaluated.push_back(std::move(outcome.record));
  OfferCounted(topk, std::move(outcome.sq), &result->profile);
}

namespace {

// Evaluates rts[lo, hi) on the executor without a cache: the fan-out
// step shared by NAIVE and BASELINE, one outcome per candidate in rank
// order.
std::vector<EvalOutcome> EvaluateRange(PreparedSearch& prep,
                                       const std::vector<RuntimeCandidate>& rts,
                                       size_t lo, size_t hi,
                                       const Executor& exec,
                                       const SearchOptions& options) {
  std::vector<EvalOutcome> outcomes(hi - lo);
  exec.ParallelFor(hi - lo, [&](size_t j) {
    outcomes[j] = EvaluateCandidate(prep, rts[lo + j], /*cache=*/nullptr,
                                    /*offer_to_cache=*/false, options);
  });
  return outcomes;
}

}  // namespace

SearchResult RunBaselineCore(PreparedSearch& prep,
                             std::vector<RuntimeCandidate> rts,
                             const SearchOptions& options) {
  SortRuntime(&rts);
  SearchResult result;
  WallTimer timer;
  TopKHeap<ScoredQuery> topk(static_cast<size_t>(options.k));
  // Termination condition (7): the k-th best known score strictly
  // dominates the best possible score of everything not yet evaluated
  // (strict so an exact ub == kth tie is still evaluated and resolved
  // under the canonical signature order).
  auto stop_after = [&](size_t rank) {
    return rank + 1 < rts.size() && topk.Full() &&
           topk.KthScore() > rts[rank + 1].ub;
  };
  // Speculative lookahead: evaluate a step of 2 candidates per worker,
  // then replay the outcomes in rank order applying condition (7)
  // exactly as the serial scan does. Outcomes past the stop point are
  // dropped unmerged, so the top-k, session records, and stats —
  // including the Thm-1 minimal evaluation count — are identical at any
  // thread count; the only speculative waste is the rest of the step
  // holding the stopping rank. Inline the step is one candidate and
  // nothing is speculative.
  Executor exec(options, rts.size());
  const size_t step = exec.Step(2 * static_cast<size_t>(exec.workers()));
  bool stop = false;
  for (size_t lo = 0; lo < rts.size() && !stop; lo += step) {
    if (StopRequested(options)) {
      result.interrupted = true;
      break;
    }
    const size_t hi = std::min(rts.size(), lo + step);
    std::vector<EvalOutcome> outcomes =
        EvaluateRange(prep, rts, lo, hi, exec, options);
    for (size_t j = 0; j < outcomes.size() && !stop; ++j) {
      MergeOutcome(std::move(outcomes[j]), &result, &topk);
      EmitProgress(options, topk, rts, lo + j + 1, result.profile);
      stop = stop_after(lo + j);
    }
  }
  FinishRun(prep, timer, /*cache=*/nullptr, &topk, &result);
  return result;
}

}  // namespace internal

SearchResult RunNaive(PreparedSearch& prep, const SearchOptions& options) {
  SearchResult result;
  WallTimer timer;
  TopKHeap<ScoredQuery> topk(static_cast<size_t>(options.k));
  std::vector<internal::RuntimeCandidate> rts =
      internal::MakePlainRuntime(prep.candidates);
  // Cache-less evaluations are fully independent: evaluate steps of 8
  // candidates per worker (step boundaries double as stop-token poll and
  // progress points) and merge in candidate order, which reproduces the
  // serial result bit-for-bit (heap tie-breaking included).
  internal::Executor exec(options, rts.size());
  const size_t step = exec.Step(8 * static_cast<size_t>(exec.workers()));
  for (size_t lo = 0; lo < rts.size(); lo += step) {
    if (internal::StopRequested(options)) {
      result.interrupted = true;
      break;
    }
    const size_t hi = std::min(rts.size(), lo + step);
    for (internal::EvalOutcome& o :
         internal::EvaluateRange(prep, rts, lo, hi, exec, options)) {
      internal::MergeOutcome(std::move(o), &result, &topk);
    }
    internal::EmitProgress(options, topk, rts, hi, result.profile);
  }
  internal::FinishRun(prep, timer, /*cache=*/nullptr, &topk, &result);
  return result;
}

SearchResult RunBaseline(PreparedSearch& prep, const SearchOptions& options) {
  return internal::RunBaselineCore(
      prep, internal::MakePlainRuntime(prep.candidates), options);
}

SearchResult RunFastTopK(PreparedSearch& prep, const SearchOptions& options) {
  return internal::RunFastTopKCore(
      prep, internal::MakePlainRuntime(prep.candidates), options);
}

SearchResult SearchNaive(const IndexSet& index, const SchemaGraph& graph,
                         const ExampleSpreadsheet& sheet,
                         const SearchOptions& options) {
  PreparedSearch prep(index, graph, sheet, options);
  return RunNaive(prep, options);
}

SearchResult SearchBaseline(const IndexSet& index, const SchemaGraph& graph,
                            const ExampleSpreadsheet& sheet,
                            const SearchOptions& options) {
  PreparedSearch prep(index, graph, sheet, options);
  return RunBaseline(prep, options);
}

SearchResult SearchFastTopK(const IndexSet& index, const SchemaGraph& graph,
                            const ExampleSpreadsheet& sheet,
                            const SearchOptions& options) {
  PreparedSearch prep(index, graph, sheet, options);
  return RunFastTopK(prep, options);
}

}  // namespace s4
