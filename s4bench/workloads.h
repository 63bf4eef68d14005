#ifndef S4BENCH_WORKLOADS_H_
#define S4BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/es_gen.h"
#include "s4/s4.h"
#include "util.h"

namespace s4bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  // Where a traced run writes its span file and per-layer table.
  std::string out_dir = ".bench_out";
};

// The three workloads. Each builds its inputs from `config.seed`, sets
// the system up, runs a closed loop for `config.seconds`, checks the
// outputs, and reports the end-to-end metrics (untraced) or the
// per-layer metrics (traced).
RunReport RunCoreCold(const RunConfig& config);
RunReport RunServedRw(const RunConfig& config);
RunReport RunFleetSkew(const RunConfig& config);

// Per-layer metric names and units, in output order. Every traced run
// reports all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// One generated example spreadsheet: its raw cells (what a client
// sends) and the generator's record (sheet + generating query).
struct Sheet {
  std::vector<std::vector<std::string>> cells;
  s4::datagen::GeneratedEs es;
};

// `count` distinct spreadsheets over `system`'s database, drawn by the
// Sec 6.1 recipe with shapes (rows 2-4, columns 2-3, 0-2 relationship
// errors) cycled in fixed proportions and every generating join tree
// given an equal share, so that the seed changes contents but not the
// mix.
std::vector<Sheet> MakeSheets(const s4::S4System& system, uint64_t seed,
                              int32_t count);

// Stage-I/II work counts of core_cold's fixed traced sample, summed over
// its requests. Serial evaluation makes them exact: the same seed gives
// the same numbers on any machine.
struct CoreCounts {
  int64_t enumerated = 0;
  int64_t evaluated = 0;
  int64_t hash_lookups = 0;
  int64_t hash_inserts = 0;
  int64_t rows_scanned = 0;
  int64_t postings_scanned = 0;
  int64_t query_row_evals = 0;
  int64_t skipped = 0;
  int64_t batches = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  bool operator==(const CoreCounts&) const = default;
};
CoreCounts CoreColdSampleCounts(uint64_t seed);

}  // namespace s4bench

#endif  // S4BENCH_WORKLOADS_H_
