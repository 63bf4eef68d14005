#include "workloads.h"

#include <sys/stat.h>

#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/synthetic.h"
#include "dist/coordinator.h"
#include "enumerate/enumerator.h"
#include "live/live_s4.h"
#include "net/client.h"
#include "net/server.h"
#include "reference.h"
#include "score/score_context.h"
#include "service/s4_service.h"
#include "skew_db.h"
#include "spans.h"

namespace s4bench {

using s4::Database;
using s4::LiveS4System;
using s4::Mutation;
using s4::S4Service;
using s4::S4System;
using s4::SearchOptions;
using s4::ServiceOptions;
using s4::StrFormat;
using s4::Value;

namespace {

// ---------------------------------------------------------------------
// Make-up of the inputs (README.md records the reasons).
// ---------------------------------------------------------------------

// Databases do not depend on the seed: the seed picks the requests and
// writes, so seed-to-seed spread measures the system, not the dataset.
constexpr uint64_t kDbSeed = 42;
// Searches run over scale 1, so that a run completes hundreds of them.
constexpr int32_t kSearchScale = 1;
// Set-up is timed over scale 10, whose index build takes a few hundred
// ms; scale 1 builds in ~15 ms, inside scheduler jitter.
constexpr int32_t kSetupScale = 10;
// Timed set-ups per run; the medians are reported.
constexpr int32_t kSetupReps = 7;
// Join trees of up to 4 relations, both in the spreadsheet generator and
// in enumeration, so every generating query is a candidate.
constexpr int32_t kMaxTreeSize = 4;
constexpr int32_t kTopK = 10;

// core_cold.
constexpr int32_t kCorePool = 1500;
// served_rw: one fixed popular pool (its own seed); the run's seed picks
// the request stream and the writes.
constexpr uint64_t kServedPoolSeed = 7;
constexpr int32_t kServedPool = 128;
constexpr double kServedZipf = 0.9;
constexpr int32_t kServedClients = 2;
constexpr int32_t kServedWorkers = 2;
constexpr int32_t kServedEvalThreads = 2;
constexpr int32_t kServedWriteEvery = 30;  // 1 op in 30 is a write batch
constexpr size_t kSharedCacheBytes = 24u << 20;
constexpr double kServedWarmupSeconds = 2.0;
// Warm-up of the other two workloads.
constexpr double kWarmupSeconds = 1.0;
// fleet_skew.
constexpr int32_t kShards = 2;
constexpr int32_t kFleetPool = 1500;
constexpr int32_t kFleetWriteEvery = 20;

// Output checks and traced samples (requests, per run).
constexpr int32_t kCheckSample = 40;
constexpr int32_t kNaiveSample = 8;
constexpr int32_t kTraceSample = 40;
constexpr int32_t kTraceWrites = 20;
// Batches prepared per writer: more than any run can issue.
constexpr int32_t kWritePlan = 4000;

SearchOptions BenchOptions(int32_t threads) {
  SearchOptions o;
  o.k = kTopK;
  o.enumeration.max_tree_size = kMaxTreeSize;
  o.num_threads = threads;
  return o;
}

s4::datagen::CsuppSimOptions Csupp(int32_t scale) {
  s4::datagen::CsuppSimOptions o;
  o.seed = kDbSeed;
  o.scale = scale;
  return o;
}

double Ms(double seconds) { return seconds * 1e3; }
double Mb(double bytes) { return bytes / (1024.0 * 1024.0); }

double IndexMb(const S4System& system) {
  const s4::IndexStats st = system.index_stats();
  return Mb(static_cast<double>(st.inverted_index_bytes +
                                st.kfk_snapshot_bytes));
}

// Summed Stage-I/II work of a set of searches, from the QueryProfile
// every layer already returns.
struct Work {
  int64_t n = 0;
  CoreCounts c;

  void Add(const s4::obs::QueryProfile& p) {
    ++n;
    c.enumerated += p.candidates_enumerated;
    c.evaluated += p.candidates_evaluated;
    c.hash_lookups += p.hash_lookups;
    c.hash_inserts += p.hash_inserts;
    c.rows_scanned += p.rows_scanned;
    c.postings_scanned += p.postings_scanned;
    c.query_row_evals += p.query_row_evals;
    c.skipped += p.skipped_by_condition;
    c.batches += p.batches;
    c.cache_hits += p.cache_hits;
    c.cache_misses += p.cache_misses;
  }
};

// Per-layer numbers of a traced run, by name.
using Layers = std::map<std::string, double>;

void AddWork(const Work& w, Layers* l) {
  const double n = static_cast<double>(std::max<int64_t>(1, w.n));
  const CoreCounts& c = w.c;
  (*l)["enumerate.candidates"] = static_cast<double>(c.enumerated) / n;
  (*l)["exec.evaluated"] = static_cast<double>(c.evaluated) / n;
  (*l)["exec.hash_lookups"] = static_cast<double>(c.hash_lookups) / n;
  (*l)["exec.hash_inserts"] = static_cast<double>(c.hash_inserts) / n;
  (*l)["exec.rows_scanned"] = static_cast<double>(c.rows_scanned) / n;
  (*l)["exec.postings_scanned"] = static_cast<double>(c.postings_scanned) / n;
  (*l)["strategy.skipped"] = static_cast<double>(c.skipped) / n;
  (*l)["strategy.batches"] = static_cast<double>(c.batches) / n;
  (*l)["strategy.query_row_evals"] = static_cast<double>(c.query_row_evals) / n;
  const double lookups = static_cast<double>(c.cache_hits + c.cache_misses);
  (*l)["cache.lookups"] = lookups / n;
  (*l)["cache.hit_ratio"] = Ratio(static_cast<double>(c.cache_hits), lookups);
}

// Stage I of a search, exactly as the strategies run it: ScoreContext
// construction plus candidate enumeration.
int64_t StageI(const S4System& system,
               const std::vector<std::vector<std::string>>& cells,
               const SearchOptions& options) {
  auto sheet = system.MakeSpreadsheet(cells);
  if (!sheet.ok()) return -1;
  s4::ScoreContext ctx(system.index(), *sheet, options.score);
  return static_cast<int64_t>(
      s4::EnumerateCandidates(system.graph(), ctx, options.enumeration)
          .candidates.size());
}

// Writes the span file and the per-layer table of a traced run.
void WriteTrace(const RunConfig& config, const SpanLog& spans,
                const Layers& layers, RunReport* report) {
  ::mkdir(config.out_dir.c_str(), 0755);
  const std::string base =
      StrFormat("%s/%s-seed%llu", config.out_dir.c_str(),
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed));
  if (!spans.WriteChromeTrace(base + "-spans.json")) {
    report->Fail("cannot write " + base + "-spans.json");
  }
  std::string table = StrFormat("# %s seed %llu: per-layer metrics\n",
                                config.workload.c_str(),
                                static_cast<unsigned long long>(config.seed));
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = layers.find(name);
    table += StrFormat("%-24s %14.4f %s\n", name.c_str(),
                       it == layers.end() ? 0.0 : it->second, unit.c_str());
  }
  table += "# span self time (median ms, spans)\n";
  for (const auto& [name, selfs] : spans.SelfSeconds()) {
    table += StrFormat("%-24s %14.4f %zu\n", name.c_str(), Ms(Median(selfs)),
                       selfs.size());
  }
  std::fputs(table.c_str(), stderr);
  std::FILE* f = std::fopen((base + "-layers.txt").c_str(), "w");
  if (f == nullptr || std::fputs(table.c_str(), f) < 0 ||
      std::fclose(f) != 0) {
    report->Fail("cannot write " + base + "-layers.txt");
  }
}

void Finish(const RunConfig& config, const SpanLog& spans, Layers layers,
            RunReport* report) {
  layers["trace.spans"] = static_cast<double>(spans.size());
  WriteTrace(config, spans, layers, report);
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = layers.find(name);
    report->Add(name, it == layers.end() ? 0.0 : it->second, unit);
  }
}

// `peak_rss_mb` is read when the measured phase ends, before the output
// checks and the timed set-ups, so that it is the measured program's.
void AddEndToEnd(double setup_s, const std::vector<double>& latencies,
                 double elapsed, double peak_rss_mb, RunReport* report) {
  report->Add("setup_s", setup_s, "s");
  report->Add("search_p50_ms", Ms(Quantile(latencies, 0.50)), "ms");
  report->Add("search_p95_ms", Ms(Quantile(latencies, 0.95)), "ms");
  report->Add("search_qps",
              Ratio(static_cast<double>(latencies.size()), elapsed), "1/s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

// Medians of kSetupReps timed set-ups.
struct SetupTimes {
  double setup_s = 0.0;  // the whole set-up
  double build_s = 0.0;  // its index builds
};

// `once(&setup_s, &build_s)` performs one set-up over its own copy of the
// scale-kSetupScale database, timing the copy out, and tears it down
// untimed; false when it failed.
template <typename SetUpOnce>
SetupTimes TimeSetups(SetUpOnce once, RunReport* report) {
  std::vector<double> setups, builds;
  for (int32_t rep = 0; rep < kSetupReps; ++rep) {
    double setup_s = 0.0, build_s = 0.0;
    if (!once(&setup_s, &build_s)) {
      report->Fail("set-up failed");
      return {};
    }
    setups.push_back(setup_s);
    builds.push_back(build_s);
  }
  return {Median(setups), Median(builds)};
}

// ---------------------------------------------------------------------
// Writes: text updates of dimension rows and fact-row inserts with valid
// keys, planned from the initial database before the run (the master
// must not be read while writes are in flight).
// ---------------------------------------------------------------------

struct PlannedWrite {
  std::vector<Mutation> batch;
};

// Writer `writer` of `writers` only updates rows whose key is congruent
// to it, and inserts keys of its own, so the last acknowledged write of
// every cell is known without cross-writer ordering.
std::vector<PlannedWrite> PlanWrites(const Database& db, uint64_t seed,
                                     int32_t writer, int32_t writers,
                                     int32_t count) {
  s4::Rng rng(seed * 7919 + static_cast<uint64_t>(writer) + 1);
  const s4::Table& ticket = *db.FindTable("Ticket");
  struct Target {
    const char* table;
    const char* column;
  };
  const Target updates[] = {{"Customer", "CustName"},
                            {"Product", "ProdName"},
                            {"Agent", "AgentName"}};
  std::vector<PlannedWrite> plan;
  for (int32_t w = 0; w < count; ++w) {
    PlannedWrite pw;
    if (w % 2 == 1) {
      // Fact-row insert: text and foreign keys copied from an existing
      // ticket, so every key is valid; a fresh primary key.
      const int64_t src = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(ticket.NumRows())));
      std::vector<Value> values;
      for (int32_t c = 0; c < ticket.NumColumns(); ++c) {
        values.push_back(ticket.GetValue(src, c));
      }
      values[static_cast<size_t>(ticket.primary_key_column())] =
          Value::Int(100000000 + static_cast<int64_t>(w) * writers + writer);
      pw.batch.push_back(Mutation::Insert("Ticket", std::move(values)));
    } else {
      const Target& t = updates[static_cast<size_t>((w / 2) % 3)];
      const s4::Table& table = *db.FindTable(t.table);
      const int32_t col = table.ColumnIndex(t.column);
      const int32_t pk_col = table.primary_key_column();
      int64_t pk = 0;
      do {
        pk = table.GetInt(static_cast<int64_t>(rng.Uniform(
                              static_cast<uint64_t>(table.NumRows()))),
                          pk_col);
      } while (pk % writers != writer);
      const int64_t donor = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(table.NumRows())));
      pw.batch.push_back(
          Mutation::Update(t.table, pk, t.column, table.GetValue(donor, col)));
    }
    plan.push_back(std::move(pw));
  }
  return plan;
}

// Acknowledged writes, replayed in each writer's order: what the master
// rows must show afterwards.
class ExpectedWrites {
 public:
  void Acknowledge(const std::vector<Mutation>& batch) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Mutation& m : batch) {
      if (m.op == Mutation::Op::kInsertRow) {
        inserts_.push_back(m);
      } else {
        cells_[{m.table, m.pk, m.column}] = m.value;
      }
    }
  }

  void Check(const Database& db, const std::string& label,
             std::vector<std::string>* errors) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Mutation& m : inserts_) {
      const s4::Table& t = *db.FindTable(m.table);
      const int32_t pk_col = t.primary_key_column();
      const int64_t row =
          t.FindByPk(m.values[static_cast<size_t>(pk_col)].AsInt());
      bool same = row >= 0;
      for (int32_t c = 0; same && c < t.NumColumns(); ++c) {
        same = t.GetValue(row, c) == m.values[static_cast<size_t>(c)];
      }
      if (!same) {
        errors->push_back(StrFormat("%s: acknowledged insert into %s not "
                                    "visible",
                                    label.c_str(), m.table.c_str()));
      }
    }
    for (const auto& [key, value] : cells_) {
      const auto& [table, pk, column] = key;
      const s4::Table& t = *db.FindTable(table);
      const int64_t row = t.FindByPk(pk);
      if (row < 0 || !(t.GetValue(row, t.ColumnIndex(column)) == value)) {
        errors->push_back(StrFormat("%s: acknowledged update of %s.%s pk "
                                    "%lld not visible",
                                    label.c_str(), table.c_str(),
                                    column.c_str(),
                                    static_cast<long long>(pk)));
      }
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inserts_.size() + cells_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Mutation> inserts_;
  std::map<std::tuple<std::string, int64_t, std::string>, Value> cells_;
};

// Answers of `sheets[0..n)` from a system built from scratch over a copy
// of `master`, checked against the reference scorer and the generating
// queries; returns the hit lists the served answers must equal.
std::vector<std::vector<Hit>> FreshAnswers(const Database& master,
                                           const std::vector<Sheet>& sheets,
                                           size_t n, const std::string& label,
                                           std::vector<std::string>* errors) {
  Database copy = master.Clone();
  auto fresh = S4System::Create(copy);
  std::vector<std::vector<Hit>> out;
  if (!fresh.ok()) {
    errors->push_back(label + ": rebuild failed: " + fresh.status().ToString());
    return out;
  }
  ReferenceScorer ref(copy);
  for (size_t i = 0; i < n && i < sheets.size(); ++i) {
    const std::string what = StrFormat("%s request %zu", label.c_str(), i);
    auto sheet = (*fresh)->MakeSpreadsheet(sheets[i].cells);
    auto result = (*fresh)->Search(sheets[i].cells, BenchOptions(1));
    if (!sheet.ok() || !result.ok()) {
      errors->push_back(what + ": rebuilt system failed to answer");
      out.emplace_back();
      continue;
    }
    CheckAgainstReference(ref, *sheet, result->topk, what, errors);
    out.push_back(HitsOf(result->topk));
    CheckSourceQuery(ref, *sheet, sheets[i].es.source_query, out.back(),
                     kTopK, what, errors);
  }
  return out;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"index.build_s", "s"},
      {"index.mb", "MB"},
      {"enumerate.ms", "ms"},
      {"enumerate.candidates", "count"},
      {"exec.ms", "ms"},
      {"exec.evaluated", "count"},
      {"exec.hash_lookups", "count"},
      {"exec.hash_inserts", "count"},
      {"exec.rows_scanned", "count"},
      {"exec.postings_scanned", "count"},
      {"exec.ns_per_lookup", "ns"},
      {"strategy.skipped", "count"},
      {"strategy.batches", "count"},
      {"strategy.query_row_evals", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.lookups", "count"},
      {"cache.shared_hit_ratio", "ratio"},
      {"cache.shared_lookups", "count"},
      {"cache.shared_evictions", "count"},
      {"cache.shared_peak_mb", "MB"},
      {"service.ms", "ms"},
      {"service.queue_ms_p50", "ms"},
      {"net.ms", "ms"},
      {"net.codec_us", "us"},
      {"net.bytes_per_search", "bytes"},
      {"live.apply_ms", "ms"},
      {"live.overlay_depth", "count"},
      {"write.p50_ms", "ms"},
      {"dist.ms", "ms"},
      {"dist.work_inflation", "ratio"},
      {"dist.shard_imbalance", "ratio"},
      {"dist.early_stop_ratio", "ratio"},
      {"dist.exchanges", "count"},
      {"trace.search_p50_ms", "ms"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

std::vector<Sheet> MakeSheets(const S4System& system, uint64_t seed,
                              int32_t count) {
  s4::datagen::EsGenerator gen(system.index(), system.graph(), seed);
  // Every eligible source tree is in the pool (pool_size is a cap), so
  // the seed reorders the trees but does not choose which exist.
  if (!gen.Init(/*min_text_columns=*/6, kMaxTreeSize, 1 << 20).ok()) return {};
  static constexpr int32_t kRows[] = {2, 3, 4};
  static constexpr int32_t kCols[] = {2, 3};
  static constexpr int32_t kErrors[] = {0, 1, 2};
  // Draw twice as many as needed, grouped by generating join tree.
  std::map<std::string, std::deque<Sheet>> by_tree;
  for (int32_t i = 0, drawn = 0, misses = 0;
       drawn < 2 * count && misses < 20 * count; ++i) {
    s4::datagen::EsGenOptions o;
    o.num_rows = kRows[i % 3];
    o.num_cols = kCols[(i / 3) % 2];
    o.relationship_errors = std::min(kErrors[(i / 6) % 3], o.num_rows - 1);
    auto es = gen.Generate(o);
    if (!es.ok() || !es->sheet.Validate().ok()) {
      ++misses;
      continue;
    }
    Sheet s;
    s.cells.resize(static_cast<size_t>(es->sheet.NumRows()));
    for (int32_t r = 0; r < es->sheet.NumRows(); ++r) {
      for (int32_t c = 0; c < es->sheet.NumColumns(); ++c) {
        s.cells[static_cast<size_t>(r)].push_back(es->sheet.cell(r, c).raw);
      }
    }
    s.es = std::move(es).value();
    const s4::JoinTree& tree = s.es.source_query.tree();
    by_tree[tree.UnrootedSignature(std::vector<std::string>(
                static_cast<size_t>(tree.size())))]
        .push_back(std::move(s));
    ++drawn;
  }
  // Take them round-robin over the trees, so that every tree gets the
  // same share whatever the seed: cost varies far more between trees
  // than within one.
  std::vector<Sheet> out;
  for (bool took = true; took && static_cast<int32_t>(out.size()) < count;) {
    took = false;
    for (auto& [tree, sheets] : by_tree) {
      if (sheets.empty() || static_cast<int32_t>(out.size()) == count) continue;
      out.push_back(std::move(sheets.front()));
      sheets.pop_front();
      took = true;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// core_cold: S4System::Search in-process, Stage II serial, no
// cross-query cache, hundreds of distinct spreadsheets.
// ---------------------------------------------------------------------

namespace {

struct CoreWorld {
  Database db;
  std::unique_ptr<S4System> system;
};

CoreWorld MakeCoreWorld() {
  CoreWorld w{s4::datagen::MakeCsuppSim(Csupp(kSearchScale)).value(), nullptr};
  w.system = S4System::Create(w.db).value();
  return w;
}

// Set-up of core_cold: S4System::Create, which is all index build.
SetupTimes TimeCoreSetups(RunReport* report) {
  const Database db = s4::datagen::MakeCsuppSim(Csupp(kSetupScale)).value();
  return TimeSetups(
      [&](double* setup_s, double* build_s) {
        const double t0 = Now();
        auto sys = S4System::Create(db);
        *setup_s = *build_s = Now() - t0;
        return sys.ok();
      },
      report);
}

}  // namespace

CoreCounts CoreColdSampleCounts(uint64_t seed) {
  CoreWorld w = MakeCoreWorld();
  Work work;
  const std::vector<Sheet> sheets = MakeSheets(*w.system, seed, kCorePool);
  for (int32_t q = 0; q < kTraceSample && q < static_cast<int32_t>(sheets.size());
       ++q) {
    auto r = w.system->Search(sheets[static_cast<size_t>(q)].cells,
                              BenchOptions(1));
    if (r.ok()) work.Add(r->profile);
  }
  return work.c;
}

RunReport RunCoreCold(const RunConfig& config) {
  RunReport report;
  CoreWorld w = MakeCoreWorld();
  const S4System& sys = *w.system;
  const std::vector<Sheet> sheets = MakeSheets(sys, config.seed, kCorePool);
  if (sheets.size() < static_cast<size_t>(kCorePool)) {
    report.Fail("spreadsheet generation came up short");
    return report;
  }
  const SearchOptions options = BenchOptions(1);
  const double start_warm = Now();

  // Warm-up (lazy allocations, page faults, clock ramp), on spreadsheets
  // from the end of the pool; not measured.
  for (size_t i = 1; Now() < start_warm + kWarmupSeconds; ++i) {
    (void)sys.Search(sheets[sheets.size() - 1 - i % sheets.size()].cells,
                     options);
  }

  std::vector<double> latencies;
  // The checked sample: request index and answer.
  std::vector<std::pair<size_t, std::vector<s4::ScoredQuery>>> kept;
  const double start = Now();
  const double end = start + config.seconds;
  for (size_t i = 0; Now() < end; ++i) {
    const Sheet& s = sheets[i % sheets.size()];
    const double t0 = Now();
    auto r = sys.Search(s.cells, options);
    const double dt = Now() - t0;
    report.Count("search", r.ok());
    if (!r.ok()) continue;
    latencies.push_back(dt);
    CheckOrderAndBounds(HitsOf(r->topk), StrFormat("core_cold request %zu", i),
                        &report.errors);
    if (i < static_cast<size_t>(kCheckSample)) kept.emplace_back(i, r->topk);
  }
  const double elapsed = Now() - start;
  const double peak_rss_mb = PeakRssMb();

  // Output checks: reference scores and the generating query on a sample,
  // and FASTTOPK = exhaustive NAIVE on a smaller one.
  ReferenceScorer ref(w.db);
  for (const auto& [i, topk] : kept) {
    const std::string label = StrFormat("core_cold request %zu", i);
    CheckAgainstReference(ref, sheets[i].es.sheet, topk, label,
                          &report.errors);
    CheckSourceQuery(ref, sheets[i].es.sheet, sheets[i].es.source_query,
                     HitsOf(topk), kTopK, label, &report.errors);
    if (i < static_cast<size_t>(kNaiveSample)) {
      s4::SearchResult naive =
          sys.Search(sheets[i].es.sheet, options, S4System::Strategy::kNaive);
      CheckSameHits(HitsOf(topk), HitsOf(naive.topk), label + " vs NAIVE",
                    &report.errors);
    }
  }

  const SetupTimes setup = TimeCoreSetups(&report);
  if (!config.trace) {
    AddEndToEnd(setup.setup_s, latencies, elapsed, peak_rss_mb, &report);
    return report;
  }

  // Traced sample: the system call, then Stage I alone on the same
  // spreadsheet (no cross-query state, so both see the same cache).
  SpanLog spans;
  Layers layers;
  Work work;
  std::vector<double> stage1, exec;
  double exec_total = 0.0;
  for (int32_t q = 0; q < kTraceSample; ++q) {
    const Sheet& s = sheets[static_cast<size_t>(q)];
    auto [root, r] = spans.Time("S4System::Search", 0, q, [&] {
      return sys.Search(s.cells, options);
    });
    auto [child, n] = spans.Time("StageI", root, q, [&] {
      return StageI(sys, s.cells, options);
    });
    (void)n;
    if (!r.ok()) continue;
    work.Add(r->profile);
    stage1.push_back(spans.Seconds(child));
    exec.push_back(spans.Seconds(root) - spans.Seconds(child));
  }
  for (double e : exec) exec_total += e;
  AddWork(work, &layers);
  layers["index.build_s"] = setup.build_s;
  layers["index.mb"] = IndexMb(sys);
  layers["enumerate.ms"] = Ms(Median(stage1));
  layers["exec.ms"] = Ms(Median(exec));
  layers["exec.ns_per_lookup"] =
      Ratio(exec_total * 1e9, static_cast<double>(work.c.hash_lookups));
  layers["trace.search_p50_ms"] = Ms(Quantile(latencies, 0.5));
  Finish(config, spans, std::move(layers), &report);
  return report;
}

// ---------------------------------------------------------------------
// served_rw: S4Client -> S4Server -> S4Service -> LiveS4System, a few
// clients over a Zipf-popular pool, a few percent writes.
// ---------------------------------------------------------------------

namespace {

// Members are destroyed bottom-up: client, server (its destructor stops
// it), service, live system.
struct ServedStack {
  std::unique_ptr<LiveS4System> live;
  std::unique_ptr<S4Service> service;
  std::unique_ptr<s4::net::S4Server> server;
  std::unique_ptr<s4::net::S4Client> client;
};

ServiceOptions ServedServiceOptions() {
  ServiceOptions o;
  o.num_workers = kServedWorkers;
  o.eval_threads = kServedEvalThreads;
  o.shared_cache_bytes = kSharedCacheBytes;
  return o;
}

// Set-up of served_rw: live system, service, server, connected client.
// Null when a step fails; `build_s`, when not null, gets the
// LiveS4System::Create time.
std::unique_ptr<ServedStack> MakeServedStack(Database db, double* build_s) {
  auto st = std::make_unique<ServedStack>();
  const double t0 = Now();
  auto live = LiveS4System::Create(std::move(db));
  if (build_s != nullptr) *build_s = Now() - t0;
  if (!live.ok()) return nullptr;
  st->live = std::move(live).value();
  st->service = std::make_unique<S4Service>(*st->live, ServedServiceOptions());
  s4::net::ServerOptions so;
  so.num_event_loops = 1;
  st->server = std::make_unique<s4::net::S4Server>(st->service.get(), so);
  if (!st->server->Start().ok()) return nullptr;
  s4::net::ClientOptions co;
  co.port = st->server->port();
  co.max_pool_connections = kServedClients;
  st->client = std::make_unique<s4::net::S4Client>(co);
  if (!st->client->Ping().ok()) return nullptr;
  return st;
}

}  // namespace

RunReport RunServedRw(const RunConfig& config) {
  RunReport report;
  const Database db = s4::datagen::MakeCsuppSim(Csupp(kSearchScale)).value();
  const std::unique_ptr<ServedStack> stack =
      MakeServedStack(db.Clone(), nullptr);
  if (stack == nullptr) {
    report.Fail("served stack failed to start");
    return report;
  }
  LiveS4System& live = *stack->live;
  S4Service& service = *stack->service;
  s4::net::S4Client& client = *stack->client;

  const std::vector<Sheet> pool =
      MakeSheets(*live.current(), kServedPoolSeed, kServedPool);
  if (pool.size() < static_cast<size_t>(kServedPool)) {
    report.Fail("spreadsheet generation came up short");
    return report;
  }
  const SearchOptions options = BenchOptions(0);
  std::vector<std::vector<PlannedWrite>> plans;
  for (int32_t c = 0; c < kServedClients; ++c) {
    plans.push_back(PlanWrites(db, config.seed, c, kServedClients, kWritePlan));
  }
  ExpectedWrites expected;
  const s4::ZipfSampler zipf(pool.size(), kServedZipf);

  struct ClientLog {
    std::vector<double> search, write, queue;
    RunReport tally;  // operation counts and failed checks
    size_t next_write = 0;
  };
  std::vector<ClientLog> logs(kServedClients);
  // One closed-loop client: each op waits for the previous answer.
  auto run_client = [&](int32_t c, double until, bool record, uint64_t salt) {
    ClientLog& log = logs[static_cast<size_t>(c)];
    s4::Rng rng(config.seed * 1000003 + salt * 31 + static_cast<uint64_t>(c));
    for (int64_t j = 0; Now() < until; ++j) {
      if (j % kServedWriteEvery == kServedWriteEvery - 1) {
        const PlannedWrite& pw =
            plans[static_cast<size_t>(c)][log.next_write++ % kWritePlan];
        const double t0 = Now();
        auto r = client.Mutate(pw.batch);
        const double dt = Now() - t0;
        const bool ok = r.ok() && r->applied ==
                                      static_cast<int64_t>(pw.batch.size()) &&
                        r->error.empty();
        if (ok) expected.Acknowledge(pw.batch);
        if (!record) continue;
        log.tally.Count("write", ok);
        if (ok) log.write.push_back(dt);
        continue;
      }
      const size_t q = zipf.Sample(rng);
      s4::net::NetSearchRequest req = s4::net::NetSearchRequest::From(
          pool[q].cells, options, S4System::Strategy::kFastTopK);
      req.want_profile = config.trace;
      const double t0 = Now();
      auto r = client.Search(req);
      const double dt = Now() - t0;
      if (!record) continue;
      log.tally.Count("search", r.ok() && !r->interrupted);
      if (!r.ok() || r->interrupted) continue;
      log.search.push_back(dt);
      log.queue.push_back(r->profile.queue_seconds);
      CheckOrderAndBounds(HitsOf(r->topk),
                          StrFormat("served_rw client %d op %lld", c,
                                    static_cast<long long>(j)),
                          &log.tally.errors);
    }
  };
  auto run_phase = [&](double seconds, bool record, uint64_t salt) {
    const double until = Now() + seconds;
    std::vector<std::thread> threads;
    for (int32_t c = 0; c < kServedClients; ++c) {
      threads.emplace_back(run_client, c, until, record, salt);
    }
    for (std::thread& t : threads) t.join();
  };

  run_phase(kServedWarmupSeconds, /*record=*/false, 1);
  const s4::CacheStats before = service.stats().shared_cache;
  const double start = Now();
  run_phase(config.seconds, /*record=*/true, 2);
  const double elapsed = Now() - start;
  const double peak_rss_mb = PeakRssMb();
  const s4::CacheStats after = service.stats().shared_cache;
  const auto epoch_now = live.current();
  const double overlay = static_cast<double>(
      std::max(epoch_now->index().column_index().OverlaySize(),
               epoch_now->index().row_index().OverlaySize()));

  std::vector<double> latencies, writes, queue;
  for (ClientLog& log : logs) {
    report.Merge(std::move(log.tally));
    latencies.insert(latencies.end(), log.search.begin(), log.search.end());
    writes.insert(writes.end(), log.write.begin(), log.write.end());
    queue.insert(queue.end(), log.queue.begin(), log.queue.end());
  }

  SpanLog spans;
  Layers layers;
  if (config.trace) {
    // Quiet system. Per sampled request: the client call, the service
    // call and the system call (with the service's pool and shared
    // cache), each warmed first so all three see a warm cache.
    Work work;
    std::vector<double> net, svc, exec, stage1, codec;
    double bytes = 0.0, exec_total = 0.0;
    for (int32_t q = 0; q < kTraceSample; ++q) {
      const Sheet& s = pool[static_cast<size_t>(q)];
      const s4::net::NetSearchRequest req = s4::net::NetSearchRequest::From(
          s.cells, options, S4System::Strategy::kFastTopK);
      s4::ServiceRequest sreq;
      sreq.cells = s.cells;
      sreq.options = req.ToSearchOptions();
      const std::shared_ptr<const S4System> epoch = live.current();
      SearchOptions sys_options = req.ToSearchOptions();
      sys_options.pool = &service.eval_pool();
      sys_options.shared_cache = &service.shared_cache();
      sys_options.shared_cache_prefix = StrFormat("s4bench-trace|%d|", q);
      (void)client.Search(req);
      (void)service.Search(sreq);
      (void)epoch->Search(s.cells, sys_options);

      auto [c_id, cr] = spans.Time("S4Client::Search", 0, q,
                                   [&] { return client.Search(req); });
      auto [s_id, sr] = spans.Time("S4Service::Search", c_id, q,
                                   [&] { return service.Search(sreq); });
      auto [y_id, yr] = spans.Time("S4System::Search", s_id, q, [&] {
        return epoch->Search(s.cells, sys_options);
      });
      auto [e_id, n] = spans.Time("StageI", y_id, q, [&] {
        return StageI(*epoch, s.cells, sys_options);
      });
      (void)n;
      if (!cr.ok() || !sr.ok() || !yr.ok()) {
        report.Fail(StrFormat("served_rw traced request %d failed", q));
        continue;
      }
      work.Add(yr->profile);
      // net.ms is everything the client call adds to the service call:
      // transport, epoll and the codec.
      net.push_back(spans.Seconds(c_id) - spans.Seconds(s_id));
      svc.push_back(spans.Seconds(s_id) - spans.Seconds(y_id));
      exec.push_back(spans.Seconds(y_id) - spans.Seconds(e_id));
      stage1.push_back(spans.Seconds(e_id));
      // Wire codec of both frames, through the net/wire functions.
      const double k0 = Now();
      const std::string req_frame = s4::net::EncodeSearchRequestFrame(req, 1);
      s4::net::NetSearchRequest req_back;
      const bool req_ok =
          s4::net::DecodeSearchRequest(
              std::string_view(req_frame).substr(s4::net::kHeaderBytes),
              &req_back)
              .ok();
      const std::string resp_frame =
          s4::net::EncodeSearchResponseFrame(*cr, 1);
      s4::net::NetSearchResponse resp_back;
      const bool resp_ok =
          s4::net::DecodeSearchResponse(
              std::string_view(resp_frame).substr(s4::net::kHeaderBytes),
              &resp_back)
              .ok();
      const double k1 = Now();
      spans.Record("wire.codec", c_id, q, k0, k1);
      if (!req_ok || !resp_ok) report.Fail("wire codec round trip failed");
      codec.push_back(k1 - k0);
      bytes += static_cast<double>(req_frame.size() + resp_frame.size());
    }
    for (double e : exec) exec_total += e;

    // Write path, quiet: LiveS4System::Apply directly, recorded as
    // acknowledged writes so the visibility check covers them.
    std::vector<double> apply;
    for (int32_t w = 0; w < kTraceWrites; ++w) {
      const PlannedWrite& pw =
          plans[0][(logs[0].next_write++) % kWritePlan];
      auto [a_id, r] = spans.Time("LiveS4System::Apply", 0, kTraceSample + w,
                                  [&] { return live.Apply(pw.batch); });
      if (!r.ok() || r->applied != static_cast<int64_t>(pw.batch.size())) {
        report.Fail("traced write failed");
        continue;
      }
      expected.Acknowledge(pw.batch);
      apply.push_back(spans.Seconds(a_id));
    }

    AddWork(work, &layers);
    layers["index.mb"] = IndexMb(*live.current());
    layers["enumerate.ms"] = Ms(Median(stage1));
    layers["exec.ms"] = Ms(Median(exec));
    layers["exec.ns_per_lookup"] =
        Ratio(exec_total * 1e9, static_cast<double>(work.c.hash_lookups));
    const double lookups = static_cast<double>(
        (after.hits - before.hits) + (after.misses - before.misses));
    layers["cache.shared_hit_ratio"] =
        Ratio(static_cast<double>(after.hits - before.hits), lookups);
    layers["cache.shared_lookups"] = lookups;
    layers["cache.shared_evictions"] =
        static_cast<double>(after.evictions - before.evictions);
    layers["cache.shared_peak_mb"] = Mb(static_cast<double>(after.peak_bytes));
    layers["service.ms"] = Ms(Median(svc));
    layers["service.queue_ms_p50"] = Ms(Median(queue));
    layers["net.ms"] = Ms(Median(net));
    layers["net.codec_us"] = Median(codec) * 1e6;
    layers["net.bytes_per_search"] = Ratio(bytes, kTraceSample);
    layers["live.apply_ms"] = Ms(Median(apply));
    layers["live.overlay_depth"] = overlay;
    layers["write.p50_ms"] = Ms(Median(writes));
    layers["trace.search_p50_ms"] = Ms(Quantile(latencies, 0.5));
  }

  // Output checks on the quiet system: the whole stack answers like a
  // system built from scratch over a copy of the master, and every
  // acknowledged write shows in the master rows.
  const std::vector<std::vector<Hit>> want = FreshAnswers(
      live.db(), pool, kCheckSample, "served_rw", &report.errors);
  for (size_t i = 0; i < want.size(); ++i) {
    auto r = client.Search(s4::net::NetSearchRequest::From(
        pool[i].cells, options, S4System::Strategy::kFastTopK));
    const std::string label = StrFormat("served_rw check %zu", i);
    if (!r.ok()) {
      report.Fail(label + ": " + r.status().ToString());
      continue;
    }
    CheckSameHits(HitsOf(r->topk), want[i], label + " vs rebuilt",
                  &report.errors);
  }
  expected.Check(live.db(), "served_rw", &report.errors);
  if (expected.size() == 0) report.Fail("served_rw: no write acknowledged");

  const Database setup_db =
      s4::datagen::MakeCsuppSim(Csupp(kSetupScale)).value();
  const SetupTimes setup = TimeSetups(
      [&](double* setup_s, double* build_s) {
        Database copy = setup_db.Clone();
        const double t0 = Now();
        auto st = MakeServedStack(std::move(copy), build_s);
        *setup_s = Now() - t0;
        return st != nullptr;
      },
      &report);
  if (!config.trace) {
    AddEndToEnd(setup.setup_s, latencies, elapsed, peak_rss_mb, &report);
  } else {
    layers["index.build_s"] = setup.build_s;
    Finish(config, spans, std::move(layers), &report);
  }
  return report;
}

// ---------------------------------------------------------------------
// fleet_skew: S4Coordinator over 2 loopback shards, each a full live
// copy of a power-law fan-out database; one client, searches with
// broadcast writes between them.
// ---------------------------------------------------------------------

namespace {

struct Shard {
  std::unique_ptr<LiveS4System> live;
  std::unique_ptr<S4Service> service;
  std::unique_ptr<s4::net::S4Server> server;
};

struct Fleet {
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<s4::dist::S4Coordinator> coordinator;
};

// Set-up of fleet_skew: one live shard per copy, each with its service
// and server, every shard reachable, the coordinator. Null when a step
// fails; `build_s`, when not null, gets the summed LiveS4System::Create
// time.
std::unique_ptr<Fleet> MakeFleet(std::vector<Database> copies,
                                 double* build_s) {
  auto f = std::make_unique<Fleet>();
  s4::dist::CoordinatorOptions co;
  double build = 0.0;
  for (int32_t i = 0; i < kShards; ++i) {
    auto sh = std::make_unique<Shard>();
    const double b0 = Now();
    auto live =
        LiveS4System::Create(std::move(copies[static_cast<size_t>(i)]));
    build += Now() - b0;
    if (!live.ok()) return nullptr;
    sh->live = std::move(live).value();
    ServiceOptions o;
    o.num_workers = 1;
    o.eval_threads = 1;
    o.shard_count = kShards;
    o.shard_index = i;
    o.shared_cache_bytes = kSharedCacheBytes;
    sh->service = std::make_unique<S4Service>(*sh->live, o);
    s4::net::ServerOptions sopt;
    sopt.num_event_loops = 1;
    sh->server = std::make_unique<s4::net::S4Server>(sh->service.get(), sopt);
    if (!sh->server->Start().ok()) return nullptr;
    co.shards.push_back({"127.0.0.1", sh->server->port()});
    f->shards.push_back(std::move(sh));
  }
  for (const s4::dist::ShardAddress& a : co.shards) {
    s4::net::ClientOptions ping;
    ping.port = a.port;
    if (!s4::net::S4Client(ping).Ping().ok()) return nullptr;
  }
  f->coordinator = std::make_unique<s4::dist::S4Coordinator>(co);
  if (build_s != nullptr) *build_s = build;
  return f;
}

std::vector<Database> ShardCopies(const Database& db) {
  std::vector<Database> copies;
  for (int32_t i = 0; i < kShards; ++i) copies.push_back(db.Clone());
  return copies;
}

}  // namespace

RunReport RunFleetSkew(const RunConfig& config) {
  RunReport report;
  const SkewDb skew = MakeSkewedCsupp(Csupp(kSearchScale)).value();
  const Database& db = skew.db;
  std::fprintf(stderr,
               "fan-out: tickets per customer max %lld mean %.2f (top 5%% "
               "own %.0f%%), per product max %lld mean %.2f (top 5%% own "
               "%.0f%%)\n",
               static_cast<long long>(skew.customer_tickets.max),
               skew.customer_tickets.mean,
               100 * skew.customer_tickets.top5pct_share,
               static_cast<long long>(skew.product_tickets.max),
               skew.product_tickets.mean,
               100 * skew.product_tickets.top5pct_share);

  const std::unique_ptr<Fleet> fleet = MakeFleet(ShardCopies(db), nullptr);
  if (fleet == nullptr) {
    report.Fail("fleet failed to start");
    return report;
  }
  s4::dist::S4Coordinator& coordinator = *fleet->coordinator;

  const std::vector<Sheet> sheets =
      MakeSheets(*fleet->shards[0]->live->current(), config.seed, kFleetPool);
  if (sheets.size() < static_cast<size_t>(kFleetPool)) {
    report.Fail("spreadsheet generation came up short");
    return report;
  }
  const SearchOptions options = BenchOptions(0);
  const std::vector<PlannedWrite> plan =
      PlanWrites(db, config.seed, 0, 1, kWritePlan);
  size_t next_write = 0;
  ExpectedWrites expected;

  auto search = [&](const Sheet& s) {
    return coordinator.Search(s4::net::NetSearchRequest::From(
        s.cells, options, S4System::Strategy::kFastTopK));
  };
  auto complete = [](const s4::dist::DistSearchResult& r) {
    return r.complete && r.unreached_shards.empty() && !r.approximate;
  };

  // Warm-up on spreadsheets from the end of the pool, then the measured
  // closed loop.
  const double start_warm = Now();
  for (size_t i = 1; Now() < start_warm + kWarmupSeconds; ++i) {
    (void)search(sheets[sheets.size() - 1 - i % sheets.size()]);
  }
  std::vector<double> latencies, writes, imbalance;
  int64_t exchanges = 0, stops = 0;
  size_t next_sheet = 0;
  const double start = Now();
  const double end = start + config.seconds;
  for (int64_t j = 0; Now() < end; ++j) {
    if (j % kFleetWriteEvery == kFleetWriteEvery - 1) {
      const PlannedWrite& pw = plan[next_write++ % kWritePlan];
      const double t0 = Now();
      auto r = coordinator.Mutate(pw.batch);
      const double dt = Now() - t0;
      const bool ok = r.ok() && r->complete && r->diverged_shards.empty() &&
                      r->applied == static_cast<int64_t>(pw.batch.size());
      report.Count("write", ok);
      if (!ok) continue;
      expected.Acknowledge(pw.batch);
      writes.push_back(dt);
      continue;
    }
    const Sheet& s = sheets[next_sheet++ % sheets.size()];
    const double t0 = Now();
    auto r = search(s);
    const double dt = Now() - t0;
    report.Count("search", r.ok() && complete(*r));
    if (!r.ok() || !complete(*r)) continue;
    latencies.push_back(dt);
    CheckOrderAndBounds(HitsOf(r->topk),
                        StrFormat("fleet_skew op %lld",
                                  static_cast<long long>(j)),
                        &report.errors);
    double slowest = 0.0, sum = 0.0;
    for (const s4::dist::DistShardStats& st : r->shards) {
      slowest = std::max(slowest, st.wall_seconds);
      sum += st.wall_seconds;
    }
    imbalance.push_back(Ratio(slowest * static_cast<double>(r->shards.size()),
                              sum));
    exchanges += static_cast<int64_t>(r->shards.size());
    stops += r->early_stops_sent;
  }
  const double elapsed = Now() - start;
  const double peak_rss_mb = PeakRssMb();

  SpanLog spans;
  Layers layers;
  if (config.trace) {
    // Quiet fleet. Fresh spreadsheets neither side has seen, each sent
    // once through the coordinator and once to one unsharded server
    // over a copy of the same database state: both calls start cold.
    Database single_db = fleet->shards[0]->live->db().Clone();
    auto single_sys = S4System::Create(single_db).value();
    ServiceOptions o;
    o.num_workers = 1;
    o.eval_threads = kShards;
    S4Service single_service(*single_sys, o);
    s4::net::S4Server single_server(&single_service);
    std::vector<double> dist_ms, stage1;
    double fleet_lookups = 0.0, single_lookups = 0.0;
    Work work;
    if (!single_server.Start().ok()) {
      report.Fail("single-node server failed to start");
    } else {
      s4::net::ClientOptions co;
      co.port = single_server.port();
      s4::net::S4Client single(co);
      const std::vector<Sheet> fresh =
          MakeSheets(*single_sys, config.seed + 0x5eed, kTraceSample);
      for (int32_t q = 0; q < static_cast<int32_t>(fresh.size()); ++q) {
        const Sheet& s = fresh[static_cast<size_t>(q)];
        s4::net::NetSearchRequest req = s4::net::NetSearchRequest::From(
            s.cells, options, S4System::Strategy::kFastTopK);
        req.want_profile = true;
        auto [d_id, dr] = spans.Time("S4Coordinator::Search", 0, q,
                                     [&] { return coordinator.Search(req); });
        auto [c_id, cr] = spans.Time("S4Client::Search", d_id, q,
                                     [&] { return single.Search(req); });
        auto [e_id, n] = spans.Time("StageI", c_id, q, [&] {
          return StageI(*single_sys, s.cells, options);
        });
        (void)n;
        dist_ms.push_back(spans.Seconds(d_id) - spans.Seconds(c_id));
        stage1.push_back(spans.Seconds(e_id));
        if (!dr.ok() || !cr.ok() || !complete(*dr)) {
          report.Fail(StrFormat("fleet_skew traced request %d failed", q));
          continue;
        }
        CheckSameHits(HitsOf(dr->topk), HitsOf(cr->topk),
                      StrFormat("fleet_skew traced %d vs single node", q),
                      &report.errors);
        work.Add(dr->profile);
        fleet_lookups += static_cast<double>(dr->profile.hash_lookups);
        single_lookups += static_cast<double>(cr->profile.hash_lookups);
      }
      single_server.Stop();
    }
    // The write path below the coordinator: the same batches applied to
    // every shard's live system directly, in one order.
    std::vector<double> apply;
    for (int32_t w = 0; w < kTraceWrites; ++w) {
      const PlannedWrite& pw = plan[next_write++ % kWritePlan];
      bool ok = true;
      for (auto& sh : fleet->shards) {
        auto [a_id, r] = spans.Time("LiveS4System::Apply", 0, kTraceSample + w,
                                    [&] { return sh->live->Apply(pw.batch); });
        apply.push_back(spans.Seconds(a_id));
        ok = ok && r.ok() &&
             r->applied == static_cast<int64_t>(pw.batch.size());
      }
      if (ok) {
        expected.Acknowledge(pw.batch);
      } else {
        report.Fail("traced write failed");
      }
    }
    AddWork(work, &layers);
    layers["index.mb"] = IndexMb(*fleet->shards[0]->live->current()) * kShards;
    layers["enumerate.ms"] = Ms(Median(stage1));
    layers["dist.ms"] = Ms(Median(dist_ms));
    layers["dist.work_inflation"] = Ratio(fleet_lookups, single_lookups);
    layers["dist.shard_imbalance"] = Median(imbalance);
    layers["dist.early_stop_ratio"] =
        Ratio(static_cast<double>(stops), static_cast<double>(exchanges));
    layers["dist.exchanges"] = static_cast<double>(exchanges);
    layers["live.apply_ms"] = Ms(Median(apply));
    layers["write.p50_ms"] = Ms(Median(writes));
    layers["trace.search_p50_ms"] = Ms(Quantile(latencies, 0.5));
  }

  // Output checks on the quiet fleet: both shards on one epoch, a
  // sample of coordinator answers equal to a single node built over the
  // same state, and every acknowledged write in both masters.
  const uint64_t epoch0 = fleet->shards[0]->live->epoch();
  for (const auto& sh : fleet->shards) {
    if (sh->live->epoch() != epoch0) report.Fail("fleet_skew: shards diverged");
    expected.Check(sh->live->db(), "fleet_skew", &report.errors);
  }
  const std::vector<std::vector<Hit>> want = FreshAnswers(
      fleet->shards[0]->live->db(), sheets, kCheckSample, "fleet_skew",
      &report.errors);
  for (size_t i = 0; i < want.size(); ++i) {
    auto r = search(sheets[i]);
    const std::string label = StrFormat("fleet_skew check %zu", i);
    if (!r.ok() || !complete(*r)) {
      report.Fail(label + ": incomplete answer");
      continue;
    }
    CheckSameHits(HitsOf(r->topk), want[i], label + " vs single node",
                  &report.errors);
  }

  const SkewDb setup_db = MakeSkewedCsupp(Csupp(kSetupScale)).value();
  const SetupTimes setup = TimeSetups(
      [&](double* setup_s, double* build_s) {
        std::vector<Database> copies = ShardCopies(setup_db.db);
        const double t0 = Now();
        auto f = MakeFleet(std::move(copies), build_s);
        *setup_s = Now() - t0;
        return f != nullptr;
      },
      &report);
  if (!config.trace) {
    AddEndToEnd(setup.setup_s, latencies, elapsed, peak_rss_mb, &report);
  } else {
    layers["index.build_s"] = setup.build_s;
    Finish(config, spans, std::move(layers), &report);
  }
  return report;
}

}  // namespace s4bench
