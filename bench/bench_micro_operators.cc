// Google-benchmark micro-benchmarks of the individual operators the
// cost model (Eq. 12) assumes to be constant-time: tokenization, posting
// scans (Algorithm 1), hash-join evaluation, sub-PJ cache operations,
// candidate enumeration and index building — plus a hand-rolled
// build/probe measurement of the flat-arena SubQueryTable, single-key
// Find against the batched FindBatch loop the evaluator runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "cache/subquery_cache.h"
#include "common/simd.h"
#include "common/timer.h"
#include "datagen/tpch_mini.h"
#include "enumerate/enumerator.h"
#include "exec/evaluator.h"

namespace {

using namespace s4;
using namespace s4::bench;

World& SharedWorld() {
  static World& world = *CsuppWorld(1).release();
  return world;
}

const datagen::GeneratedEs& SharedEs() {
  static const datagen::GeneratedEs& es = *[] {
    World& world = SharedWorld();
    datagen::EsGenerator gen(*world.index, *world.graph, 4242);
    Status st = gen.Init(6, 4);
    if (!st.ok()) abort();
    auto generated = gen.Generate();
    if (!generated.ok()) abort();
    return new datagen::GeneratedEs(std::move(generated).value());
  }();
  return es;
}

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tok;
  const std::string text =
      "Quarterly revenue dashboard for the Pacific Northwest region 2015";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_IndexBuildTpchMini(benchmark::State& state) {
  auto db = datagen::MakeTpchMini();
  if (!db.ok()) state.SkipWithError("db build failed");
  for (auto _ : state) {
    auto index = IndexSet::Build(*db);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexBuildTpchMini);

void BM_ScoreContextBuild(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  for (auto _ : state) {
    ScoreContext ctx(*world.index, es.sheet, ScoreParams{});
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_ScoreContextBuild);

void BM_Enumerate(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  ScoreContext ctx(*world.index, es.sheet, ScoreParams{});
  EnumerationOptions opts;
  opts.max_tree_size = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateCandidates(*world.graph, ctx, opts));
  }
}
BENCHMARK(BM_Enumerate);

void BM_EvaluateQuery(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  ScoreContext ctx(*world.index, es.sheet, ScoreParams{});
  EnumerationOptions opts;
  opts.max_tree_size = 4;
  EnumerationResult r = EnumerateCandidates(*world.graph, ctx, opts);
  if (r.candidates.empty()) state.SkipWithError("no candidates");
  // Use the biggest candidate (join-heavy).
  const CandidateQuery* heaviest = &r.candidates[0];
  for (const CandidateQuery& c : r.candidates) {
    if (c.query.tree().size() > heaviest->query.tree().size()) {
      heaviest = &c;
    }
  }
  Evaluator ev(ctx);
  for (auto _ : state) {
    EvalCounters counters;
    benchmark::DoNotOptimize(
        ev.RowScores(heaviest->query, nullptr, &counters));
  }
}
BENCHMARK(BM_EvaluateQuery);

void BM_EvaluateQueryWarmCache(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  ScoreContext ctx(*world.index, es.sheet, ScoreParams{});
  EnumerationOptions opts;
  opts.max_tree_size = 4;
  EnumerationResult r = EnumerateCandidates(*world.graph, ctx, opts);
  if (r.candidates.empty()) state.SkipWithError("no candidates");
  const CandidateQuery* heaviest = &r.candidates[0];
  for (const CandidateQuery& c : r.candidates) {
    if (c.query.tree().size() > heaviest->query.tree().size()) {
      heaviest = &c;
    }
  }
  Evaluator ev(ctx);
  SubQueryCache cache(64u << 20);
  EvalCounters counters;
  EvalOptions eopts;
  eopts.offer_to_cache = true;
  ev.RowScores(heaviest->query, &cache, &counters, eopts);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ev.RowScores(heaviest->query, &cache, &counters, eopts));
  }
}
BENCHMARK(BM_EvaluateQueryWarmCache);

void BM_CacheAddGet(benchmark::State& state) {
  SubQueryCache cache(64u << 20);
  auto table = std::make_shared<SubQueryTable>();
  table->num_es_rows = 3;
  bool fresh = false;
  for (int i = 0; i < 1000; ++i) {
    double* row = table->UpsertScored(i, &fresh);
    row[0] = 1.0;
    row[1] = 2.0;
    row[2] = 3.0;
  }
  int i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i++ % 64);
    cache.Add(key, table);
    benchmark::DoNotOptimize(cache.Get(key));
  }
}
BENCHMARK(BM_CacheAddGet);

void BM_FullSearchFastTopK(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  SearchOptions options;
  options.enumeration.max_tree_size = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SearchFastTopK(*world.index, *world.graph, es.sheet, options));
  }
}
BENCHMARK(BM_FullSearchFastTopK);

// --- flat-arena SubQueryTable build/probe ------------------------------

// Build + probe microbenchmark over one (num_es_rows, hit-density)
// configuration. Keys are spread over a 4x-wider space so probes mix
// hits and misses at the requested density, like a join probe stream.
void RunFlatTableConfig(int32_t num_es_rows, double density,
                        int64_t num_keys, int64_t num_probes,
                        TablePrinter* tp) {
  const int64_t key_space = num_keys * 4;
  std::vector<int64_t> keys(static_cast<size_t>(num_keys));
  uint64_t state = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(num_es_rows);
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int64_t i = 0; i < num_keys; ++i) {
    keys[i] = static_cast<int64_t>(next() % static_cast<uint64_t>(key_space));
  }
  // Probe stream: `density` of the probes target stored keys; the rest
  // lie outside the key space and must miss.
  std::vector<int64_t> probes(static_cast<size_t>(num_probes));
  int64_t expected_hits = 0;
  for (int64_t i = 0; i < num_probes; ++i) {
    if (static_cast<double>(next() % 1000) < density * 1000.0) {
      probes[i] = keys[next() % static_cast<uint64_t>(num_keys)];
      ++expected_hits;
    } else {
      probes[i] = key_space + static_cast<int64_t>(
                                  next() % static_cast<uint64_t>(key_space));
    }
  }

  // Build: every 8th key joins with all-zero scores.
  WallTimer build_timer;
  SubQueryTable flat;
  flat.num_es_rows = num_es_rows;
  bool fresh = false;
  for (int64_t i = 0; i < num_keys; ++i) {
    if ((i & 7) == 0) {
      flat.InsertZero(keys[i]);
    } else {
      double* row = flat.UpsertScored(keys[i], &fresh);
      row[static_cast<size_t>(i) % num_es_rows] += 1.0;
    }
  }
  flat.ShrinkToFit();
  const double flat_build_ns =
      build_timer.ElapsedSeconds() * 1e9 / static_cast<double>(num_keys);

  // Probe, accumulating a checksum the optimizer cannot drop.
  double flat_sum = 0.0;
  int64_t flat_hits = 0;
  WallTimer flat_probe_timer;
  for (int64_t p : probes) {
    bool exists = false;
    const double* row = flat.Find(p, &exists);
    flat_hits += exists ? 1 : 0;
    if (row != nullptr) flat_sum += row[0];
  }
  const double flat_probe_ns = flat_probe_timer.ElapsedSeconds() * 1e9 /
                               static_cast<double>(num_probes);

  // The batched probe loop the Stage-II evaluator runs: FindBatch hashes
  // a chunk up front, prefetches every key's slot lines, then resolves,
  // so the misses overlap instead of serializing.
  double batch_sum = 0.0;
  int64_t batch_hits = 0;
  constexpr size_t kChunk = 1024;
  std::vector<const double*> batch_rows(kChunk);
  std::vector<char> batch_exists(kChunk);
  WallTimer batch_probe_timer;
  for (size_t lo = 0; lo < probes.size(); lo += kChunk) {
    const size_t m = std::min(kChunk, probes.size() - lo);
    flat.FindBatch(probes.data() + lo, m, batch_rows.data(),
                   reinterpret_cast<bool*>(batch_exists.data()));
    for (size_t j = 0; j < m; ++j) {
      batch_hits += batch_exists[j] ? 1 : 0;
      if (batch_rows[j] != nullptr) batch_sum += batch_rows[j][0];
    }
  }
  const double batch_probe_ns = batch_probe_timer.ElapsedSeconds() * 1e9 /
                                static_cast<double>(num_probes);

  // Health gate (--smoke in CI): both probe paths find exactly the
  // stored keys and agree on the scores they return.
  if (flat_hits != expected_hits || batch_hits != flat_hits ||
      batch_sum != flat_sum) {
    std::fprintf(stderr,
                 "probe mismatch: expected %lld hits, Find %lld/%f, "
                 "FindBatch %lld/%f\n",
                 static_cast<long long>(expected_hits),
                 static_cast<long long>(flat_hits), flat_sum,
                 static_cast<long long>(batch_hits), batch_sum);
    std::abort();
  }

  const double flat_bpk =
      static_cast<double>(flat.ByteSize()) / static_cast<double>(flat.NumKeys());
  tp->AddRow({std::to_string(num_es_rows), TablePrinter::Num(density, 2),
              TablePrinter::Num(flat_probe_ns, 1),
              TablePrinter::Num(batch_probe_ns, 1),
              TablePrinter::Num(flat_probe_ns / batch_probe_ns, 2) + "x",
              TablePrinter::Num(flat_build_ns, 1),
              TablePrinter::Num(flat_bpk, 1)});
  const std::string section = "es_rows=" + std::to_string(num_es_rows) +
                              "/density=" + TablePrinter::Num(density, 2);
  JsonMetric(section, "flat_probe_ns", flat_probe_ns);
  JsonMetric(section, "batch_probe_ns", batch_probe_ns);
  JsonMetric(section, "flat_build_ns", flat_build_ns);
  JsonMetric(section, "flat_bytes_per_key", flat_bpk);
}

void RunFlatTable(bool smoke) {
  const int64_t num_keys = EnvInt("S4_BENCH_FLAT_KEYS", smoke ? 20000 : 50000);
  const int64_t num_probes =
      EnvInt("S4_BENCH_FLAT_PROBES", smoke ? 200000 : 2000000);
  std::printf(
      "Flat-arena SubQueryTable build/probe, Find vs FindBatch"
      " (%lld keys, %lld probes per config, simd=%s)\n",
      static_cast<long long>(num_keys), static_cast<long long>(num_probes),
      simd::BackendName());
  TablePrinter tp({"es_rows", "hit density", "flat ns/probe",
                   "batch ns/probe", "batch speedup", "flat ns/build",
                   "flat B/key"});
  for (int32_t es_rows : {1, 5, 20}) {
    for (double density : {0.1, 0.5, 0.9}) {
      RunFlatTableConfig(es_rows, density, num_keys, num_probes, &tp);
    }
  }
  tp.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int remaining = s4::bench::JsonInit(argc, argv, "micro_operators");
  bool smoke = false;
  for (int i = 1; i < remaining; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  s4::bench::JsonMetric("config", "smoke", smoke ? 1.0 : 0.0);
  RunFlatTable(smoke);
  if (smoke) return 0;  // CI gate: skip the google-benchmark section.
  int bench_argc = remaining;
  benchmark::Initialize(&bench_argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
