#ifndef S4_STRATEGY_STRATEGY_INTERNAL_H_
#define S4_STRATEGY_STRATEGY_INTERNAL_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/topk_heap.h"
#include "strategy/strategy.h"

namespace s4::internal {

// Runtime view of one candidate inside a strategy run. The incremental
// strategies override the upper bound, restrict evaluation to the
// changed spreadsheet rows, and supply prior per-row scores for the
// unchanged rows; plain runs leave those fields empty.
struct RuntimeCandidate {
  const CandidateQuery* cand = nullptr;
  double ub = 0.0;
  std::vector<int32_t> es_rows;            // empty = evaluate all rows
  std::string suffix;                      // cache-key row-subset tag
  const std::vector<double>* prior_row_scores = nullptr;
};

// Builds the runtime list for a plain (non-incremental) run: one entry
// per candidate, sorted by descending upper bound with deterministic
// signature tie-breaking.
std::vector<RuntimeCandidate> MakePlainRuntime(
    const std::vector<CandidateQuery>& candidates);

// Sorts by (ub desc, signature asc).
void SortRuntime(std::vector<RuntimeCandidate>* rts);

// Everything one candidate evaluation produces: the scored query plus
// its counter delta and session record. An evaluation writes only its
// own outcome, so it can run on a pool worker; outcomes merge on the
// search thread in deterministic candidate order (no hot-path atomics),
// which keeps top-k tie-breaking and counters reproducible.
struct EvalOutcome {
  ScoredQuery sq;
  obs::SearchCounters counters;
  EvaluatedRecord record;
};

// Evaluates one candidate (type-a operator on a full PJ query): runs the
// hash-join plan on the candidate's row subset, merges prior row scores,
// and produces the final Eq. 5 score plus the session record.
// Thread-safe given a sharded cache: every other input is read-only
// during a run.
EvalOutcome EvaluateCandidate(PreparedSearch& prep,
                              const RuntimeCandidate& rt,
                              SubQueryCache* cache, bool offer_to_cache,
                              const SearchOptions& options);

// Folds the evaluator's Stage-II counters into the table's Stage-II rows
// (the one place EvalCounters meets the per-search counters).
void AddEvalCounters(const EvalCounters& eval, obs::SearchCounters* counters);

// Shared epilogue of every strategy run: drain the heap into
// `result->topk` (descending score), stamp eval_seconds from `timer`,
// fold the enumeration size and the per-run cache stats into
// `result->profile`, then bulk-publish the run into the metrics
// registry.
void FinishRun(const PreparedSearch& prep, const WallTimer& timer,
               const SubQueryCache* cache, TopKHeap<ScoredQuery>* topk,
               SearchResult* result);

// True once the run's stop token (if any) fired; polled at step/group
// boundaries so the evaluation loops stay synchronization-free.
inline bool StopRequested(const SearchOptions& options) {
  return options.stop != nullptr && options.stop->ShouldStop();
}

// Runs a strategy's Stage-II fan-outs. The worker count is resolved
// once from SearchOptions::num_threads: <= 0 means auto (the injected
// pool's size, else one worker per hardware thread), and a count above
// that size is clamped to it, since that pool cannot run more at once
// and a per-run pool must not start more threads than the machine has.
// ParallelFor runs on the injected pool (the service's
// shared one), on a pool built for this run, or inline on the search
// thread when the run has one worker or at most one work item.
//
// Each driver has one evaluation loop that walks its candidates in
// fan-out steps of Step(pooled) candidates. Inline a step is one
// candidate, so the loop runs the paper's serial schedule: the
// stop-token polls, skip checks and progress snapshots that sit at step
// boundaries happen after every evaluation.
class Executor {
 public:
  Executor(const SearchOptions& options, size_t work_items);

  // Resolved worker count, >= 1 (also sizes FASTTOPK's cache shards).
  int32_t workers() const { return workers_; }

  // Candidates per fan-out step: `pooled` on a pool, 1 inline.
  size_t Step(size_t pooled) const { return pool_ == nullptr ? 1 : pooled; }

  // Runs fn(i) for every i in [0, n) and returns when all are done;
  // inline and in index order without a pool or when n <= 1.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) const;

 private:
  int32_t workers_ = 1;
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;
};

// Offers a scored query to the heap, counting the offer as a bound
// update in `counters` when it raised the k-th best score (the
// termination/skipping bound of condition (7)).
inline void OfferCounted(TopKHeap<ScoredQuery>* topk, ScoredQuery sq,
                         obs::SearchCounters* counters) {
  const bool was_full = topk->Full();
  const double before = topk->KthScore();
  const double score = sq.score;
  // The signature is the canonical tie-break key: boundary ties resolve
  // the same way regardless of evaluation order or shard slicing.
  std::string key = sq.query.signature();
  topk->Offer(score, std::move(sq), std::move(key));
  if (topk->Full() && (!was_full || topk->KthScore() > before)) {
    ++counters->bound_updates;
  }
}

// Folds one outcome into the run result and heap: the only merge of
// exact evaluations. Must be called in deterministic candidate order.
void MergeOutcome(EvalOutcome&& outcome, SearchResult* result,
                  TopKHeap<ScoredQuery>* topk);

// Streams one progress snapshot to SearchOptions::progress (when set):
// the current top-k plus the upper bound of everything at or past
// `next_rank` in the (ub desc)-sorted runtime list — -inf once the list
// is exhausted. A single pointer test per boundary when no sink is
// installed.
inline void EmitProgress(const SearchOptions& options,
                         const TopKHeap<ScoredQuery>& topk,
                         const std::vector<RuntimeCandidate>& rts,
                         size_t next_rank,
                         const obs::SearchCounters& counters) {
  if (!options.progress) return;
  SearchProgress p;
  p.remaining_upper_bound =
      next_rank < rts.size() ? rts[next_rank].ub
                             : -std::numeric_limits<double>::infinity();
  p.enumerated = static_cast<int64_t>(rts.size());
  p.evaluated = counters.candidates_evaluated;
  p.batches = counters.batches;
  for (auto& [score, sq] : topk.SnapshotSortedDescending()) {
    (void)score;
    p.topk.push_back(std::move(sq));
  }
  options.progress(p);
}

// FASTTOPK core over an arbitrary runtime list (used by both the plain
// and the incremental drivers).
SearchResult RunFastTopKCore(PreparedSearch& prep,
                             std::vector<RuntimeCandidate> rts,
                             const SearchOptions& options);

// BASELINE core (Algorithm 2) over an arbitrary runtime list.
SearchResult RunBaselineCore(PreparedSearch& prep,
                             std::vector<RuntimeCandidate> rts,
                             const SearchOptions& options);

}  // namespace s4::internal

#endif  // S4_STRATEGY_STRATEGY_INTERNAL_H_
