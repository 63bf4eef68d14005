#include "skew_db.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "common/rng.h"

namespace s4bench {

namespace {

// Exponent of the power law P(d) ~ d^-gamma the per-row fan-out degrees
// are drawn from.
constexpr double kGamma = 2.0;

// Draws `n` degrees from the power law on [1, n] and rescales them
// to sum to exactly `total` (the PowerlawDegreeSequence step of the
// extmem-lfr generators). Sorted descending.
std::vector<int64_t> PowerLawDegrees(s4::Rng& rng, int64_t n, int64_t total) {
  // Inverse-transform sampling of the continuous power law on [1, n + 1),
  // floored to integers.
  const double a = 1.0 - kGamma;
  const double lo = 1.0;
  const double hi = std::pow(static_cast<double>(n) + 1.0, a);
  std::vector<double> raw(static_cast<size_t>(n));
  double sum = 0.0;
  for (double& d : raw) {
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
    d = std::floor(std::pow(lo + u * (hi - lo), 1.0 / a));
    sum += d;
  }
  // Rescale to the requested total: floor, then hand the remainder to
  // the largest fractional parts.
  std::vector<int64_t> deg(static_cast<size_t>(n));
  std::vector<std::pair<double, size_t>> frac(static_cast<size_t>(n));
  int64_t assigned = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const double x = raw[i] * static_cast<double>(total) / sum;
    deg[i] = static_cast<int64_t>(std::floor(x));
    assigned += deg[i];
    frac[i] = {x - std::floor(x), i};
  }
  std::sort(frac.begin(), frac.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  for (size_t i = 0; assigned < total; ++i, ++assigned) {
    ++deg[frac[i % frac.size()].second];
  }
  std::sort(deg.begin(), deg.end(), std::greater<>());
  return deg;
}

// Realizes two degree sequences with equal sums as a bipartite multigraph,
// Havel-Hakimi style: the left vertex with the most remaining stubs is
// joined to the right vertices with the most remaining stubs, so hubs on
// both sides meet. Returns (left, right) index pairs, one per stub.
std::vector<std::pair<int32_t, int32_t>> HavelHakimiBipartite(
    const std::vector<int64_t>& left, const std::vector<int64_t>& right) {
  std::vector<int32_t> order(left.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
    return left[static_cast<size_t>(x)] > left[static_cast<size_t>(y)];
  });
  // Max-heap of right vertices by remaining stubs (ties: lower index).
  using Slot = std::pair<int64_t, int32_t>;
  auto cmp = [](const Slot& x, const Slot& y) {
    return x.first != y.first ? x.first < y.first : x.second > y.second;
  };
  std::priority_queue<Slot, std::vector<Slot>, decltype(cmp)> heap(cmp);
  for (size_t j = 0; j < right.size(); ++j) {
    if (right[j] > 0) heap.push({right[j], static_cast<int32_t>(j)});
  }
  std::vector<std::pair<int32_t, int32_t>> edges;
  std::vector<Slot> taken;
  for (int32_t i : order) {
    int64_t need = left[static_cast<size_t>(i)];
    while (need > 0 && !heap.empty()) {
      // One stub to each of the `need` fullest right vertices; a left
      // hub with more stubs than there are right vertices goes round
      // again (a multigraph, as one customer may buy a product twice).
      taken.clear();
      while (need > 0 && !heap.empty()) {
        Slot s = heap.top();
        heap.pop();
        edges.emplace_back(i, s.second);
        --need;
        if (--s.first > 0) taken.push_back(s);
      }
      for (const Slot& s : taken) heap.push(s);
    }
  }
  return edges;
}

FanoutStats Fanout(const std::vector<int64_t>& degrees) {
  FanoutStats st;
  int64_t sum = 0;
  for (int64_t d : degrees) {
    st.max = std::max(st.max, d);
    sum += d;
  }
  st.mean = degrees.empty() ? 0.0
                            : static_cast<double>(sum) /
                                  static_cast<double>(degrees.size());
  std::vector<int64_t> sorted = degrees;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const size_t top = std::max<size_t>(1, sorted.size() / 20);
  int64_t top_sum = 0;
  for (size_t i = 0; i < top; ++i) top_sum += sorted[i];
  st.top5pct_share =
      sum == 0 ? 0.0 : static_cast<double>(top_sum) / static_cast<double>(sum);
  return st;
}

}  // namespace

s4::StatusOr<SkewDb> MakeSkewedCsupp(const s4::datagen::CsuppSimOptions& base) {
  auto db = s4::datagen::MakeCsuppSim(base);
  if (!db.ok()) return db.status();

  s4::Table* ticket = db->FindTable("Ticket");
  const s4::Table* customer = db->FindTable("Customer");
  const s4::Table* product = db->FindTable("Product");
  if (ticket == nullptr || customer == nullptr || product == nullptr) {
    return s4::Status::Internal("CSUPP-sim lacks Ticket/Customer/Product");
  }
  const int32_t cust_col = ticket->ColumnIndex("CustId");
  const int32_t prod_col = ticket->ColumnIndex("ProdId");
  const int64_t tickets = ticket->NumRows();

  s4::Rng rng(base.seed ^ 0x736b6577ULL);
  std::vector<int64_t> cust_deg =
      PowerLawDegrees(rng, customer->NumRows(), tickets);
  std::vector<int64_t> prod_deg =
      PowerLawDegrees(rng, product->NumRows(), tickets);
  std::vector<std::pair<int32_t, int32_t>> pairs =
      HavelHakimiBipartite(cust_deg, prod_deg);
  if (static_cast<int64_t>(pairs.size()) != tickets) {
    return s4::Status::Internal("fan-out realization lost stubs");
  }
  rng.Shuffle(pairs);

  // Dimension row i keeps degree rank i: hubs are whichever rows the
  // shuffle of row ids puts first.
  std::vector<int64_t> cust_rows(static_cast<size_t>(customer->NumRows()));
  std::vector<int64_t> prod_rows(static_cast<size_t>(product->NumRows()));
  for (size_t i = 0; i < cust_rows.size(); ++i) cust_rows[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < prod_rows.size(); ++i) prod_rows[i] = static_cast<int64_t>(i);
  rng.Shuffle(cust_rows);
  rng.Shuffle(prod_rows);
  const int32_t cust_pk = customer->primary_key_column();
  const int32_t prod_pk = product->primary_key_column();
  for (int64_t r = 0; r < tickets; ++r) {
    const auto [c, p] = pairs[static_cast<size_t>(r)];
    S4_RETURN_IF_ERROR(ticket->SetCell(
        r, cust_col,
        s4::Value::Int(customer->GetInt(cust_rows[static_cast<size_t>(c)],
                                        cust_pk))));
    S4_RETURN_IF_ERROR(ticket->SetCell(
        r, prod_col,
        s4::Value::Int(product->GetInt(prod_rows[static_cast<size_t>(p)],
                                       prod_pk))));
  }

  SkewDb out{std::move(db).value(), Fanout(cust_deg), Fanout(prod_deg)};
  return out;
}

}  // namespace s4bench
