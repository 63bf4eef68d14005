#ifndef S4BENCH_CHECKS_H_
#define S4BENCH_CHECKS_H_

#include <string>
#include <vector>

#include "net/wire.h"
#include "reference.h"
#include "strategy/strategy.h"

namespace s4bench {

// One ranked answer as the client sees it, whichever layer returned it.
struct Hit {
  std::string signature;
  double score = 0.0;
  double upper_bound = 0.0;
  double row_score = 0.0;
  double column_score = 0.0;
};

std::vector<Hit> HitsOf(const std::vector<s4::ScoredQuery>& topk);
std::vector<Hit> HitsOf(const std::vector<s4::net::NetTopkEntry>& topk);

// Each check appends one line per violation to `errors`, prefixed with
// `label` (which request of which workload).

// Canonical order (score descending, signature ascending) and every
// score at most its Prop 2 upper bound.
void CheckOrderAndBounds(const std::vector<Hit>& hits, const std::string& label,
                         std::vector<std::string>* errors);

// Every hit's row, column and final score equal the reference scorer's,
// bit for bit.
void CheckAgainstReference(const ReferenceScorer& ref,
                           const s4::ExampleSpreadsheet& sheet,
                           const std::vector<s4::ScoredQuery>& topk,
                           const std::string& label,
                           std::vector<std::string>* errors);

// False when some relation instance of `query` reaches two neighbours
// through the same foreign key it holds. Both neighbours are then the
// same row, the query equals a smaller one, and enumeration prunes it
// (candidate-network rule); the spreadsheet generator does not.
bool IsEnumerableShape(const s4::PJQuery& query);

// Exactness against the query that generated the spreadsheet: top-1
// scores at least as high, and, when the generating query has an
// enumerable shape, it is in the top-k whenever its score beats the k-th
// (or fewer than k hits came back).
void CheckSourceQuery(const ReferenceScorer& ref,
                      const s4::ExampleSpreadsheet& sheet,
                      const s4::PJQuery& source, const std::vector<Hit>& hits,
                      int32_t k, const std::string& label,
                      std::vector<std::string>* errors);

// Two answers are the same list, bit for bit.
void CheckSameHits(const std::vector<Hit>& got, const std::vector<Hit>& want,
                   const std::string& label, std::vector<std::string>* errors);

}  // namespace s4bench

#endif  // S4BENCH_CHECKS_H_
