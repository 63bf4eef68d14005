#ifndef S4_APPROX_JOIN_SAMPLER_H_
#define S4_APPROX_JOIN_SAMPLER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "approx/score_interval.h"
#include "enumerate/enumerator.h"
#include "score/score_context.h"

namespace s4 {

namespace obs {
class Trace;
}  // namespace obs

namespace approx {

// Knobs of the anytime approximate mode, lifted verbatim from
// SearchOptions (see ValidateSearchSpec for the accepted ranges).
struct ApproxParams {
  double epsilon = 0.0;       // relative slack on the k-th score
  double confidence = 0.95;   // per-candidate interval confidence
  int64_t sample_budget = 4096;  // max join-result rows walked/candidate
  uint64_t rng_seed = 0x5344534453445344ULL;
};

// What one sampling pass over a candidate produced.
struct CandidateEstimate {
  ScoreInterval interval;
  // Certain lower bound on the Eq. 3 row score (the numerator the
  // interval's `lo` was combined from).
  double row_score_lo = 0.0;
  // The sampler could not resolve the interval within its caps (support
  // too large for the budget at the requested confidence, or a walk /
  // discovery cap fired): the caller should fall back to exact
  // evaluation unless it is in deadline-fallback mode, in which case the
  // interval is still a valid (certain-lo, deterministic-hi) bracket.
  bool escalate = false;
  // Exact per-ES-row containment scores, filled only when the walk was
  // exhaustive (interval.exact()); usable as a session record.
  std::vector<double> row_scores;
};

// Sampling-based score estimator (DESIGN.md "Anytime approximate
// search"). For a candidate PJ query it draws a uniform sample of the
// query's join-result *support* — the root rows that could possibly
// score, found by propagating the rows matched by each projection
// binding root-ward through the KfkSnapshot fk indexes — and walks each
// sampled root row top-down through the join tree, scoring it exactly.
//
// Because score(t | Q) is a *max* over join-result rows, any sampled
// prefix yields a certain lower bound, and a prefix that covered every
// per-ES-row argmax yields the exact score. A uniform random prefix of
// length m over support K contains any fixed row with probability
// f = m / K, so by a union bound over the T example rows the prefix
// pins all T maxima — and the lower bound *is* the score — with
// probability >= 1 - T * (1 - f). The sampler walks
// m = ceil((1 - (1 - confidence) / T) * K) rows (capped by the budget)
// and reports [lo, lo] at `confidence` when it got there, [lo, Prop-2
// upper bound] at confidence 1 otherwise.
//
// Determinism: the sample order is a Fisher-Yates prefix of the sorted
// support under an Rng seeded with rng_seed ^ FingerprintString of the
// candidate signature, so estimates are reproducible at any thread
// count, shard slicing, or evaluation order.
//
// Cost gate: outside the deadline fallback, discovery plus walking may
// spend at most a fraction of the exact evaluator's work proxy (the
// summed row counts of the tree's tables); a candidate whose resolution
// would cost more escalates early, so a failed sampling attempt never
// adds more than that fraction to the evaluation it falls back to. The
// best-first resolver gets its own, slightly larger allowance (half the
// proxy, still bounded by a 64-row walk cap) because a successful proof
// replaces the exact evaluation entirely instead of preceding it.
//
// Construction precomputes, per (ES column, candidate database column)
// pair, the per-row cell-similarity vectors ComputeOwnSims would
// produce — one posting scan per pair, the same work ScoreContext
// already did for the column-level bounds. A constructed sampler is
// immutable: Estimate is const and safe to call from pool workers.
class JoinSampler {
 public:
  JoinSampler(const ScoreContext& ctx, const ApproxParams& params);

  // Estimates `cand`'s score interval. With `best_effort` set (the
  // deadline fallback), the sampler always spends its budget and
  // returns the tightest bracket it found even when unresolved; without
  // it, it skips the walk when the interval provably cannot resolve
  // within the budget (the caller will evaluate exactly anyway).
  CandidateEstimate Estimate(const CandidateQuery& cand, bool best_effort,
                             obs::Trace* trace) const;

  const ApproxParams& params() const { return params_; }

 private:
  // Per-row similarity contributions of one (es_col -> gid) binding:
  // exactly the rows and values ComputeOwnSims adds for that binding,
  // stride num_es_rows per slot.
  struct PairSims {
    std::unordered_map<int64_t, uint32_t> slot;
    std::vector<double> sims;
    std::vector<int64_t> rows_ascending;  // support seeds
    std::vector<double> max_sims;         // per-ES-row max over all rows

    const double* Find(int64_t row, size_t stride) const {
      auto it = slot.find(row);
      return it == slot.end() ? nullptr : sims.data() + it->second * stride;
    }
  };

  struct WalkCtx;

  void BuildPair(int32_t es_col, int32_t gid, PairSims* out) const;
  const PairSims* FindPair(int32_t es_col, int32_t gid) const;

  // Root rows reachable root-ward from the bindings' matched rows (a
  // superset of the positively-scoring roots), sorted ascending. False
  // when `work_budget` (decremented per expansion) runs out.
  bool DiscoverSupport(const CandidateQuery& cand, int64_t* work_budget,
                       std::vector<int64_t>* support) const;

  // Exact per-ES-row scores of the join-result rows rooted at
  // `root_row`; returns false when the row is dead (some join failed)
  // or the visit cap fired (sets *capped).
  bool WalkRow(const WalkCtx& w, TreeNodeId v, int64_t row, int32_t depth,
               double* out, int64_t* visits_left, bool* capped) const;

  // Deterministic exact resolution for supports too large to sample at
  // the stated confidence: walks support rows in decreasing order of an
  // admissible per-row bound (the row's own root sims plus every other
  // node's max own-sims) and stops as soon as the achieved per-ES-row
  // maxima dominate every unwalked row's bound — at that point the
  // maxima ARE the exact row scores. On success fills est->row_scores,
  // est->row_score_lo, and est->interval.sampled and returns true;
  // returns false (leaving est untouched apart from budget spend) when
  // the proof does not fire within `work_budget`.
  // `support` holds the candidate rows to walk (the full discovered
  // support, or just the root-matched rows when discovery was skipped —
  // `full_support` false then floors the dominance check at the subtree
  // cap, since an undiscovered row can score at most that).
  bool BestFirstResolve(const WalkCtx& w, const std::vector<int64_t>& support,
                        bool full_support, int64_t* work_budget,
                        CandidateEstimate* est) const;

  const ScoreContext* ctx_;
  ApproxParams params_;
  std::unordered_map<uint64_t, PairSims> pairs_;  // Key(es_col, gid)
};

}  // namespace approx
}  // namespace s4

#endif  // S4_APPROX_JOIN_SAMPLER_H_
