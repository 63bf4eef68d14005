#ifndef S4BENCH_SKEW_DB_H_
#define S4BENCH_SKEW_DB_H_

#include <cstdint>

#include "common/status.h"
#include "datagen/synthetic.h"
#include "storage/database.h"

namespace s4bench {

// Degrees of one side of a fan-out relationship: how many fact rows
// reference each dimension row.
struct FanoutStats {
  int64_t max = 0;
  double mean = 0.0;
  // Share of the fact rows owned by the top 5% of dimension rows.
  double top5pct_share = 0.0;
};

struct SkewDb {
  s4::Database db;
  FanoutStats customer_tickets;
  FanoutStats product_tickets;
};

// CSUPP-sim with power-law fan-out: the Ticket fact rows' customer and
// product keys are reassigned so that a few hub customers and products
// own most tickets. Everything else (text, dimensions, notes) is the
// plain CSUPP-sim of `base`.
s4::StatusOr<SkewDb> MakeSkewedCsupp(const s4::datagen::CsuppSimOptions& base);

}  // namespace s4bench

#endif  // S4BENCH_SKEW_DB_H_
