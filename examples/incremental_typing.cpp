// Live spreadsheet typing (Sec 5.4): the user fills the Figure 2(a)
// example spreadsheet one cell at a time, and S4 refreshes the top
// queries after every keystroke-commit, reusing the evaluation results
// of unchanged rows (FASTTOPK-INC).
#include <cstdio>

#include "datagen/tpch_mini.h"
#include "s4/s4.h"

int main() {
  using namespace s4;

  auto db = datagen::MakeTpchMini();
  if (!db.ok()) return 1;
  auto s4 = S4System::Create(*db);
  if (!s4.ok()) return 1;

  SearchOptions options;
  options.k = 3;
  SearchSession session = (*s4)->NewSession(options);

  const std::vector<std::vector<std::string>> full{
      {"Rick", "USA", "Xbox"},
      {"Julie", "", "iPhone"},
      {"Kevin", "Canada", ""},
  };

  std::vector<std::vector<std::string>> typed;
  for (size_t row = 0; row < full.size(); ++row) {
    typed.push_back({"", "", ""});
    for (size_t col = 0; col < full[row].size(); ++col) {
      if (full[row][col].empty()) continue;
      typed[row][col] = full[row][col];

      auto sheet = (*s4)->MakeSpreadsheet(typed);
      if (!sheet.ok() || !sheet->Validate().ok()) continue;

      SearchResult r = session.Search(*sheet);
      std::printf(
          "typed [%zu,%zu] = %-8s -> top query (%.2f, %lld row-evals): %s\n",
          row, col, full[row][col].c_str(),
          r.topk.empty() ? 0.0 : r.topk[0].score,
          static_cast<long long>(r.profile.query_row_evals),
          r.topk.empty()
              ? "(none)"
              : r.topk[0].query.ToString((*s4)->db()).c_str());
    }
  }

  std::printf("\nFinal winning query:\n");
  auto sheet = (*s4)->MakeSpreadsheet(typed);
  if (sheet.ok()) {
    SearchResult r = session.Search(*sheet);
    if (!r.topk.empty()) {
      std::printf("%s\n", r.topk[0].query.ToSql((*s4)->db()).c_str());
    }
  }
  return 0;
}
