#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "approx/join_sampler.h"
#include "common/timer.h"
#include "common/topk_heap.h"
#include "exec/cost_model.h"
#include "obs/trace.h"
#include "strategy/strategy_internal.h"

namespace s4::internal {

namespace {

// Per-candidate state inside one batch.
struct BatchEntry {
  size_t rt_index;                      // into the runtime list
  std::vector<SubPJQuery> subs;         // enumerated once
  std::vector<std::string> keys;        // cache keys incl. row suffix
  std::unordered_set<std::string> key_set;
};

// Orders `group` so that consecutive queries share as many sub-PJ
// queries as possible (heuristic 1 of Sec 5.3.4): greedy chain that
// starts from the highest-upper-bound member and always appends the
// unplaced query sharing the most keys with the last placed one.
std::vector<size_t> SimilarityOrder(const std::vector<size_t>& group,
                                    const std::vector<BatchEntry>& entries) {
  if (group.size() <= 2) return group;
  std::vector<size_t> order;
  std::vector<bool> used(group.size(), false);
  order.push_back(group[0]);
  used[0] = true;
  for (size_t step = 1; step < group.size(); ++step) {
    const std::unordered_set<std::string>& last_keys =
        entries[order.back()].key_set;
    size_t best = group.size();
    int64_t best_shared = -1;
    for (size_t g = 0; g < group.size(); ++g) {
      if (used[g]) continue;
      int64_t shared = 0;
      for (const std::string& key : entries[group[g]].keys) {
        if (last_keys.count(key) > 0) ++shared;
      }
      if (shared > best_shared) {
        best_shared = shared;
        best = g;
      }
    }
    used[best] = true;
    order.push_back(group[best]);
  }
  return order;
}

class FastTopKRun {
 public:
  FastTopKRun(PreparedSearch& prep, std::vector<RuntimeCandidate> rts,
              const SearchOptions& options)
      : prep_(prep),
        rts_(std::move(rts)),
        options_(options),
        topk_(static_cast<size_t>(options.k)),
        exec_(options, rts_.size()),
        cache_(options.cache_budget_bytes,
               SubQueryCache::ShardsForThreads(exec_.workers())) {
    // Cross-query sharing: misses in the per-run cache fall through to
    // the service's shared cache; insertions are republished there.
    if (options.shared_cache != nullptr) {
      cache_.AttachShared(options.shared_cache, options.shared_cache_prefix);
    }
  }

  SearchResult Run() {
    WallTimer timer;
    if (ApproxOn()) {
      // Built once per run; construction precomputes the per-binding
      // similarity tables (one posting scan per pair, like Stage I).
      approx::ApproxParams params;
      params.epsilon = options_.approx_epsilon;
      params.confidence = options_.approx_confidence;
      params.sample_budget = options_.sample_budget;
      params.rng_seed = options_.rng_seed;
      sampler_ = std::make_unique<approx::JoinSampler>(prep_.ctx, params);
    }
    const size_t n = rts_.size();
    size_t next = 0;
    int64_t batch_index = 0;
    while (next < n) {
      // Batch boundary: the natural stop-token poll point (Alg 3). The
      // evaluator's Stage-II 16-lane probe batches sit strictly inside
      // one candidate evaluation, so they never add or move a poll:
      // cancellation granularity stays exactly one candidate.
      if (ShouldAbort()) {
        result_.interrupted = true;
        break;
      }
      // Batch j covers candidates up to rank k*(1+eps)^j (Alg 3), clamped
      // to n before the cast: a large epsilon overflows size_t.
      const double bound = std::min(
          static_cast<double>(n),
          std::ceil(static_cast<double>(options_.k) *
                    std::pow(1.0 + options_.epsilon,
                             static_cast<double>(batch_index))));
      size_t end = std::min(n, std::max(next + 1, static_cast<size_t>(bound)));
      {
        obs::SpanTimer span(options_.trace, "fasttopk", "batch");
        if (span.enabled()) {
          span.AddArg("index", std::to_string(batch_index));
          span.AddArg("size", std::to_string(end - next));
        }
        EvaluateBatch(next, end);
      }
      ++result_.profile.batches;
      next = end;
      ++batch_index;
      // Batch boundary: stream a progress snapshot (the distributed
      // kShardPartial payload) before the termination check so a
      // coordinator sees the tightest remaining upper bound we know.
      EmitProgress(options_, topk_, rts_, next, result_.profile);
      // Termination condition (7) after each batch. Strict: a remaining
      // candidate with ub == kth can still displace the boundary entry
      // under the canonical (score desc, signature asc) tie order. In
      // approximate mode, the epsilon-relaxed variant also fires: every
      // remaining candidate's Prop-2 bound is within (1 + eps) of the
      // k-th score, so none could improve it beyond the stated slack.
      if (next < n && topk_.Full()) {
        const double kth = topk_.KthScore();
        const bool exact_term = kth > rts_[next].ub;
        const bool approx_term =
            ApproxOn() &&
            rts_[next].ub <= kth * (1.0 + kSkipSlack * options_.approx_epsilon);
        if (exact_term || approx_term) {
          if (!exact_term) result_.approximate = true;
          if (options_.trace != nullptr) {
            options_.trace->AddInstant(
                "fasttopk", "early_termination",
                {{"evaluated_through", std::to_string(next)},
                 {"remaining", std::to_string(n - next)},
                 {"relaxed", exact_term ? "0" : "1"}});
          }
          break;
        }
      }
      if (options_.trace != nullptr) {
        options_.trace->AddInstant("fasttopk", "termination_check");
      }
    }
    FinishRun(prep_, timer, &cache_, &topk_, &result_);
    return std::move(result_);
  }

 private:
  // Approximate mode is a FASTTOPK-only, plain-evaluation-only feature;
  // the drop-zero ablation is rejected at the validation boundary, and
  // guarded again here for callers that bypass it.
  bool ApproxOn() const {
    return options_.approx_epsilon > 0.0 && !options_.drop_zero_rows;
  }

  // Row-subset / prior-score candidates (incremental sessions) always
  // evaluate exactly; the sampler walks full rows only.
  bool Sampleable(const RuntimeCandidate& rt) const {
    return rt.es_rows.empty() && rt.prior_row_scores == nullptr;
  }

  // Stop-token poll with the deadline fallback: in approximate mode a
  // *deadline* firing switches the run into best-effort sampling for
  // every remaining candidate — a bounded-error anytime result instead
  // of a truncated one — while an explicit cancellation (client gone,
  // nobody wants the answer) still aborts immediately.
  bool ShouldAbort() {
    if (options_.stop == nullptr) return false;
    if (options_.stop->cancelled()) return true;
    if (!options_.stop->ShouldStop()) return false;
    if (!ApproxOn()) return true;
    if (!deadline_fallback_) {
      deadline_fallback_ = true;
      if (options_.trace != nullptr) {
        options_.trace->AddInstant("approx", "deadline_fallback_entered");
      }
    }
    return false;
  }

  // Fraction of the epsilon band actually spent on skip/termination
  // decisions. The contract allows dropping anything provably within
  // eps of the k-th score, but spending the whole band realizes the
  // worst case: every boundary candidate gets dropped. A quarter of
  // the band prunes nearly as much while keeping the realized error
  // comfortably inside the guarantee.
  static constexpr double kSkipSlack = 0.25;

  double SkipBound() const {
    // kth * (1 + slack * eps): with eps = 0 this is the exact
    // strict-skip threshold; KthScore() is -inf while the heap is not
    // full, so the bound never fires early.
    return topk_.KthScore() * (1.0 + kSkipSlack * options_.approx_epsilon);
  }

  ScoredQuery MakeApproxScored(const RuntimeCandidate& rt,
                               const approx::CandidateEstimate& est) const {
    ScoredQuery sq;
    sq.query = rt.cand->query;
    sq.score = est.interval.lo;
    sq.upper_bound = rt.ub;
    sq.row_score = est.row_score_lo;
    sq.column_score = rt.cand->column_score;
    sq.interval = est.interval;
    sq.approximate = !est.interval.exact();
    return sq;
  }

  // Resolves batch candidates [lo, hi) by sampling where possible,
  // marking resolved slots so the exact machinery only sees the
  // escalations. Estimates fan out on the executor (they are pure given
  // the immutable sampler); skip/offer decisions replay serially in rank
  // order against the live heap, so a fixed thread count is
  // deterministic and the heap evolution matches the serial path.
  void ResolveBySampling(size_t lo, size_t hi, std::vector<bool>* resolved) {
    std::vector<size_t> want;
    want.reserve(hi - lo);
    {
      // Prefilter against the frozen bound: skip thresholds only rise,
      // so anything at or below them now will still be skippable at
      // apply time — no estimate needed.
      const bool full = topk_.Full();
      const double bound = SkipBound();
      for (size_t i = lo; i < hi; ++i) {
        if (!Sampleable(rts_[i])) continue;
        if (full && rts_[i].ub <= bound) continue;
        want.push_back(i);
      }
    }
    std::vector<approx::CandidateEstimate> ests(want.size());
    auto estimate = [&](size_t j) {
      ests[j] = sampler_->Estimate(*rts_[want[j]].cand,
                                   /*best_effort=*/deadline_fallback_,
                                   options_.trace);
    };
    exec_.ParallelFor(want.size(), estimate);

    size_t next_want = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (!Sampleable(rts_[i])) continue;
      const approx::CandidateEstimate* est = nullptr;
      if (next_want < want.size() && want[next_want] == i) {
        est = &ests[next_want++];
      }
      // Exact strict skip first (the one EvaluateRts applies), so the
      // epsilon-relaxed decisions below only ever see candidates the
      // exact path would have evaluated.
      if (topk_.Full() && rts_[i].ub < topk_.KthScore()) {
        ++result_.profile.skipped_by_condition;
        (*resolved)[i - lo] = true;
        continue;
      }
      if (topk_.Full() && rts_[i].ub <= SkipBound()) {
        ++result_.profile.approx_skipped;
        result_.approximate = true;
        (*resolved)[i - lo] = true;
        continue;
      }
      if (est == nullptr) continue;  // prefiltered but bound regressed: exact
      result_.profile.approx_samples += est->interval.sampled;
      if (est->escalate && !deadline_fallback_) {
        ++result_.profile.approx_escalated;
        continue;
      }
      if (topk_.Full() && est->interval.hi <= SkipBound()) {
        ++result_.profile.approx_skipped;
        result_.approximate = true;
        (*resolved)[i - lo] = true;
        continue;
      }
      if (est->interval.resolved() || deadline_fallback_) {
        ++result_.profile.approx_sampled;
        if (deadline_fallback_ && est->escalate) {
          ++result_.profile.approx_deadline_fallbacks;
        }
        if (est->interval.exact() && !est->row_scores.empty()) {
          result_.evaluated.push_back(EvaluatedRecord{
              rts_[i].cand->query.signature(), est->row_scores});
        } else {
          result_.approximate = true;
        }
        OfferCounted(&topk_, MakeApproxScored(rts_[i], *est),
                     &result_.profile);
        (*resolved)[i - lo] = true;
        continue;
      }
      // Unresolved interval outside fallback: escalate to exact.
      ++result_.profile.approx_escalated;
    }
  }

  // Evaluates the given candidates (already in deterministic order —
  // similarity order for a critical group, entry order for a batch
  // remainder) in executor steps: the whole list on a pool, one
  // candidate inline. Skip decisions are frozen against the k-th score
  // at each step's entry, so inline the skipping condition is re-checked
  // after every evaluation, as in the paper's serial schedule. On a pool
  // Prop 2 still guarantees a skipped candidate cannot enter the top-k,
  // so only the skip *count* can differ from serial. The step's
  // survivors share the sharded cache and merge back in order; every
  // decision reads heap state only between steps, so a fixed thread
  // count is deterministic.
  void EvaluateRts(const std::vector<size_t>& rt_indices,
                   bool offer_to_cache) {
    const size_t step = exec_.Step(rt_indices.size());
    for (size_t lo = 0; lo < rt_indices.size(); lo += step) {
      const size_t hi = std::min(rt_indices.size(), lo + step);
      // Skipping condition (heuristic 2, Sec 5.3.4): an upper bound below
      // the current k-th score cannot enter the top-k. Strict so an exact
      // tie (ub == kth) is still evaluated and resolved canonically.
      const bool full = topk_.Full();
      const double kth = topk_.KthScore();
      std::vector<size_t> live;
      live.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        if (full && rts_[rt_indices[i]].ub < kth) {
          ++result_.profile.skipped_by_condition;
        } else {
          live.push_back(rt_indices[i]);
        }
      }
      std::vector<EvalOutcome> outcomes(live.size());
      exec_.ParallelFor(live.size(), [&](size_t j) {
        outcomes[j] = EvaluateCandidate(prep_, rts_[live[j]], &cache_,
                                        offer_to_cache, options_);
      });
      for (EvalOutcome& o : outcomes) {
        MergeOutcome(std::move(o), &result_, &topk_);
      }
    }
  }

  // BatchEval (Algorithm 4) over candidates [lo, hi) of the runtime list.
  void EvaluateBatch(size_t lo, size_t hi) {
    // Approximate mode: resolve what sampling can (interval skips and
    // interval offers) before the critical-sub machinery spins up, so
    // Q* selection, pinning, and similarity ordering only ever see the
    // escalated candidates that truly need exact evaluation.
    std::vector<bool> sampled_out(hi - lo, false);
    if (ApproxOn()) {
      obs::SpanTimer span(options_.trace, "approx", "resolve_batch");
      ResolveBySampling(lo, hi, &sampled_out);
    }
    std::vector<BatchEntry> entries;
    entries.reserve(hi - lo);
    const std::vector<uint64_t>& gens = prep_.ctx.index().relation_gens();
    for (size_t i = lo; i < hi; ++i) {
      if (sampled_out[i - lo]) continue;
      BatchEntry e;
      e.rt_index = i;
      e.subs = rts_[i].cand->query.EnumerateSubQueries();
      for (const SubPJQuery& s : e.subs) {
        // Gen-stamp matches the evaluator's probe keys: a mutation to
        // any relation of the sub-PJ changes its suffix, so stale cached
        // tables from earlier epochs can never be shared.
        e.keys.push_back(s.cache_key + RelationGenSuffix(s.tree, gens) +
                         rts_[i].suffix);
      }
      e.key_set.insert(e.keys.begin(), e.keys.end());
      entries.push_back(std::move(e));
    }

    std::vector<bool> done(entries.size(), false);
    size_t remaining = entries.size();
    Evaluator evaluator(prep_.ctx);

    while (remaining > 0) {
      // Critical-group boundary: poll the stop token so an abandoned
      // request stops before picking (and evaluating) the next Q*. A
      // deadline in approximate mode resolves the batch remainder by
      // best-effort sampling instead of dropping it.
      if (ShouldAbort()) {
        result_.interrupted = true;
        return;
      }
      if (deadline_fallback_) {
        // The deadline fired mid-batch: resolve every not-yet-evaluated
        // entry by best-effort sampling (one rank at a time — entries
        // are no longer a contiguous range). Row-subset candidates the
        // sampler cannot bracket still evaluate exactly; they are rare
        // and per-candidate, so the cancel path can abort them.
        std::vector<size_t> rest;
        for (size_t e = 0; e < entries.size(); ++e) {
          if (done[e]) continue;
          done[e] = true;
          const size_t rt = entries[e].rt_index;
          std::vector<bool> one(1, false);
          ResolveBySampling(rt, rt + 1, &one);
          if (!one[0]) rest.push_back(rt);
        }
        EvaluateRts(rest, /*offer_to_cache=*/false);
        remaining = 0;
        break;
      }
      cache_.Clear();

      // Pick the critical sub-PJ query Q*: highest cost among those
      // shared by >= 2 unevaluated queries whose output fits in B.
      std::unordered_map<std::string, std::vector<size_t>> sharers;
      for (size_t e = 0; e < entries.size(); ++e) {
        if (done[e]) continue;
        for (const std::string& key : entries[e].key_set) {
          sharers[key].push_back(e);
        }
      }
      const SubPJQuery* best_sub = nullptr;
      std::string best_key;
      int64_t best_cost = -1;
      std::vector<size_t>* best_group = nullptr;
      for (size_t e = 0; e < entries.size(); ++e) {
        if (done[e]) continue;
        for (size_t s = 0; s < entries[e].subs.size(); ++s) {
          const std::string& key = entries[e].keys[s];
          auto it = sharers.find(key);
          if (it == sharers.end() || it->second.size() < 2) continue;
          const SubPJQuery& sub = entries[e].subs[s];
          int64_t cost = EvaluationCost(sub.tree, sub.bindings, prep_.ctx);
          if (cost <= best_cost) continue;
          if (EstimateTableBytes(sub.tree, prep_.ctx) >
              options_.cache_budget_bytes) {
            continue;
          }
          best_cost = cost;
          best_sub = &sub;
          best_key = key;
          best_group = &it->second;
        }
      }

      if (best_sub == nullptr) {
        // No shareable sub-PJ left: evaluate the rest in entry order
        // (with the skipping condition) and finish the batch (Alg 4
        // line 5).
        std::vector<size_t> rest;
        for (size_t e = 0; e < entries.size(); ++e) {
          if (done[e]) continue;
          rest.push_back(entries[e].rt_index);
          done[e] = true;
        }
        EvaluateRts(rest, /*offer_to_cache=*/false);
        remaining = 0;
        break;
      }

      // Skipping-condition guard: if no query in Critical^{-1}(Q*) can
      // still enter the top-k, evaluating Q* itself is wasted work.
      bool group_live = false;
      for (size_t e : *best_group) {
        if (!topk_.Full() ||
            rts_[entries[e].rt_index].ub >= topk_.KthScore()) {
          group_live = true;
          break;
        }
      }
      if (!group_live) {
        for (size_t e : *best_group) {
          ++result_.profile.skipped_by_condition;
          done[e] = true;
          --remaining;
        }
        continue;
      }

      // Evaluate Q* and pin its output relation in M (Alg 4 line 7).
      EvalOptions eopts;
      eopts.es_rows = rts_[entries[(*best_group)[0]].rt_index].es_rows;
      eopts.drop_zero_rows = options_.drop_zero_rows;
      eopts.trace = options_.trace;
      std::shared_ptr<const SubQueryTable> table;
      EvalCounters eval;
      {
        obs::SpanTimer critical_span(options_.trace, "fasttopk",
                                     "evaluate_critical_sub");
        if (critical_span.enabled()) {
          critical_span.AddArg("sharers",
                               std::to_string(best_group->size()));
        }
        table = evaluator.EvaluateSub(*best_sub, &cache_, &eval, eopts);
      }
      AddEvalCounters(eval, &result_.profile);
      result_.profile.model_cost +=
          EvaluationCost(best_sub->tree, best_sub->bindings, prep_.ctx);
      cache_.Add(best_key, std::move(table), /*pinned=*/true);
      ++result_.profile.critical_subs_cached;

      // Evaluate Critical^{-1}(Q*) in similarity order, re-using M with
      // LRU offers of intermediate tables (heuristic 1).
      std::vector<size_t> order = SimilarityOrder(*best_group, entries);
      std::vector<size_t> order_rts;
      order_rts.reserve(order.size());
      for (size_t e : order) {
        order_rts.push_back(entries[e].rt_index);
        done[e] = true;
        --remaining;
      }
      EvaluateRts(order_rts, /*offer_to_cache=*/true);
      cache_.Unpin(best_key);
    }
  }

  PreparedSearch& prep_;
  std::vector<RuntimeCandidate> rts_;
  const SearchOptions& options_;
  SearchResult result_;
  TopKHeap<ScoredQuery> topk_;
  Executor exec_;  // before cache_: its worker count sizes the shards
  SubQueryCache cache_;
  // Anytime approximate mode: null unless approx_epsilon > 0.
  std::unique_ptr<approx::JoinSampler> sampler_;
  // Latched once the run's deadline fires: remaining candidates finish
  // in best-effort sampling mode instead of being dropped.
  bool deadline_fallback_ = false;
};

}  // namespace

SearchResult RunFastTopKCore(PreparedSearch& prep,
                             std::vector<RuntimeCandidate> rts,
                             const SearchOptions& options) {
  SortRuntime(&rts);
  FastTopKRun run(prep, std::move(rts), options);
  return run.Run();
}

}  // namespace s4::internal
