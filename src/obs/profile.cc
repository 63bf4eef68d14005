#include "obs/profile.h"

#include <cinttypes>
#include <cstdio>

namespace s4::obs {

namespace {

void Line(std::string* out, const char* label, double seconds) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  %-26s %9.3f ms\n", label,
                1e3 * seconds);
  *out += buf;
}

void Line(std::string* out, const char* label, int64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  %-26s %12" PRId64 "\n", label, value);
  *out += buf;
}

void Line(std::string* out, const char* label, uint64_t value) {
  Line(out, label, static_cast<int64_t>(value));
}

struct Block {
  ExplainSection section;
  const char* title;
  bool only_if_nonzero;
};

constexpr Block kBlocks[] = {
    {ExplainSection::Timing, "query profile", false},
    {ExplainSection::Work, "work", false},
    {ExplainSection::Cache, "cache", false},
    {ExplainSection::Sampler, "sampler", true},
};

}  // namespace

std::string FormatProfile(const QueryProfile& p,
                          const std::vector<ProfileHit>& hits) {
  std::string out;
  out.reserve(1024);
  char buf[256];

  for (const Block& block : kBlocks) {
    std::string body;
    bool nonzero = false;
#define S4_EXPLAIN(type, name, merge, registry, row_section, label) \
  if (ExplainSection::row_section == block.section) {              \
    Line(&body, label, p.name);                                     \
    nonzero |= p.name != 0;                                         \
  }
    S4_SEARCH_COUNTERS(S4_EXPLAIN)
#undef S4_EXPLAIN
    if (block.only_if_nonzero && !nonzero) continue;
    out += block.title;
    out += '\n';
    out += body;
  }

  if (!p.shards.empty()) {
    out += "shards\n";
    for (const ShardProfile& s : p.shards) {
      std::snprintf(buf, sizeof(buf),
                    "  shard %-3d %9.3f ms  enum=%" PRId64 " eval=%" PRId64
                    " partials=%" PRId64 "%s%s\n",
                    s.shard_index, 1e3 * s.wall_seconds, s.enumerated,
                    s.evaluated, s.partials, s.lost ? " [lost]" : "",
                    s.approximate ? " [approx]" : "");
      out += buf;
    }
  }

  if (!hits.empty()) {
    out += "hits\n";
    int rank = 1;
    for (const ProfileHit& h : hits) {
      if (h.approximate) {
        // Error bars: the sampling bracket the score is certified to
        // lie in, at the per-candidate confidence the caller asked for.
        std::snprintf(buf, sizeof(buf),
                      "  %2d. score=%.4f in [%.4f, %.4f] @ %.0f%% conf  ",
                      rank++, h.score, h.interval_lo, h.interval_hi,
                      1e2 * h.interval_confidence);
      } else {
        std::snprintf(buf, sizeof(buf), "  %2d. score=%.4f  ", rank++,
                      h.score);
      }
      out += buf;
      out += h.label;
      out += '\n';
    }
  }
  return out;
}

}  // namespace s4::obs
