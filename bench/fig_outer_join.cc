// Bench: sequenced join variants vs match rate. Sweeps the fraction of
// probe-side tuples whose key has join partners (0/25/50/75/100%) and
// runs each sequenced kind — inner, left-outer, full-outer, anti — on
// the partition executor at every point. The outer/anti kinds pay for
// coverage tracking and uncovered-subinterval emission exactly where the
// match rate is low, so the sweep exposes the cost asymmetry: inner
// output grows with the match rate while anti output shrinks, and the
// unmatched-row counters mirror each other.
//
// All reported values except wall_seconds are deterministic (charged
// I/O under the per-file head model, output cardinality, unmatched/
// uncovered counters) — bench_compare gates them against the committed
// baseline in CI's bench-smoke job.

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"

namespace tempo::bench {
namespace {

constexpr uint32_t kBufferPages = 32;
constexpr int64_t kDistinctKeys = 400;
constexpr Chronon kLifespan = 100000;

struct KindCase {
  JoinKind kind;
  const char* label;
};

const KindCase kKinds[] = {
    {JoinKind::kInner, "inner"},
    {JoinKind::kLeftOuter, "left-outer"},
    {JoinKind::kFullOuter, "full-outer"},
    {JoinKind::kAnti, "anti"},
};

// Random (key, pad) tuples. Keys are uniform over [key_lo, key_lo +
// kDistinctKeys); the first `matched` tuples of the s side instead draw
// from the r side's key range, which is how the sweep dials the match
// rate without touching cardinalities or interval shape.
std::vector<Tuple> MakeTuples(Random& rng, size_t n, size_t matched,
                              int64_t matched_lo, int64_t unmatched_lo) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t lo = i < matched ? matched_lo : unmatched_lo;
    const int64_t key = lo + static_cast<int64_t>(rng.Uniform(kDistinctKeys));
    const Chronon start = rng.UniformRange(0, kLifespan - 1);
    const int64_t dur = rng.Bernoulli(0.05)
                            ? rng.UniformRange(kLifespan / 4, kLifespan / 2)
                            : rng.UniformRange(0, 50);
    out.push_back(Tuple({Value(key), Value("p" + std::to_string(i))},
                        Interval(start, start + dur)));
  }
  return out;
}

int Run() {
  const uint32_t scale = BenchScale();
  const size_t tuples_per_side = 16384 / scale;
  const CostModel model = CostModel::Ratio(5.0);
  PrintHeader("fig_outer_join: sequenced join variants vs match rate (" +
              std::to_string(tuples_per_side) + " tuples/side, buffSize=" +
              std::to_string(kBufferPages) + ")");

  BenchOutput out("fig_outer_join");
  out.SetConfig("seed", 71.0);
  out.SetConfig("cost_model_ratio", 5.0);
  out.SetConfig("buffer_pages", static_cast<double>(kBufferPages));
  out.SetConfig("tuples_per_side", static_cast<double>(tuples_per_side));

  const Schema r_schema({{"key", ValueType::kInt64},
                         {"rpad", ValueType::kString}});
  const Schema s_schema({{"key", ValueType::kInt64},
                         {"spad", ValueType::kString}});
  const Schema join_schema({{"key", ValueType::kInt64},
                            {"rpad", ValueType::kString},
                            {"spad", ValueType::kString}});

  TextTable table({"kind", "match%", "output tuples", "unmatched", "io ops",
                   "act cost"});

  for (const int match_pct : {0, 25, 50, 75, 100}) {
    Disk disk;
    Random rng(71);
    StoredRelation r(&disk, r_schema, "r");
    StoredRelation s(&disk, s_schema, "s");
    // r keys live in [0, kDistinctKeys); unmatched s keys in a disjoint
    // range so they can never find a partner.
    for (const Tuple& t :
         MakeTuples(rng, tuples_per_side, tuples_per_side, 0, 0)) {
      if (!r.Append(t).ok()) return 1;
    }
    const size_t matched = tuples_per_side * match_pct / 100;
    for (const Tuple& t : MakeTuples(rng, tuples_per_side, matched, 0,
                                     kDistinctKeys)) {
      if (!s.Append(t).ok()) return 1;
    }
    if (!r.Flush().ok() || !s.Flush().ok()) return 1;

    for (const KindCase& kc : kKinds) {
      StoredRelation join_out(
          &disk, kc.kind == JoinKind::kAnti ? r_schema : join_schema, "out");
      if (!join_out.SetCharged(false).ok()) return 1;
      disk.accountant().Reset();

      ExecContext ctx;
      JoinRequest request;
      request.From(&r, &s)
          .Using(JoinExecutor::kPartition)
          .Kind(kc.kind)
          .BufferPages(kBufferPages)
          .Model(model)
          .Seed(71);
      const auto wall_start = std::chrono::steady_clock::now();
      auto stats = tempo::RunJoin(request, &join_out, &ctx);
      const double wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      if (!stats.ok()) {
        std::fprintf(stderr, "%s m=%d: %s\n", kc.label, match_pct,
                     stats.status().ToString().c_str());
        return 1;
      }

      const std::string label =
          std::string(kc.label) + "/m" + std::to_string(match_pct);
      out.AddRun(label, *stats, model);
      out.Add(label, "wall_seconds", wall_seconds);
      const double unmatched = stats->Get(Metric::kOuterUnmatchedTuples);
      if (kc.kind != JoinKind::kInner) {
        out.Add(label, "unmatched_tuples", unmatched);
        out.Add(label, "uncovered_subintervals",
                stats->Get(Metric::kUncoveredSubintervalsEmitted));
      }
      table.AddRow({kc.label, std::to_string(match_pct),
                    Fmt(static_cast<double>(stats->output_tuples)),
                    Fmt(unmatched), Fmt(stats->io.total_ops()),
                    Fmt(stats->Cost(model))});
      disk.DeleteFile(join_out.file_id()).ok();
    }
  }

  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "inner output grows with the match rate; anti output shrinks.\n"
      "left/full outer add their unmatched subintervals to the streamed "
      "output;\nfull outer additionally re-partitions the probe side for "
      "the swapped pass.\n");
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
