// Bench: the endpoint-sweep executor vs sort-merge / partition / radix
// across selectivity (match rate) x interval-length distributions. Long-
// lived intervals are sort-merge's worst case (unbounded backup) and
// inflate the partition join's replication; the sweep pays one sort per
// side and then a single forward pass whose active maps grow only with
// the number of concurrently live tuples. A second section runs the
// adjacency predicates (meets / meets|met-by) that only the sweep
// executor can evaluate at all.
//
// All reported values except wall_seconds are deterministic (charged I/O
// under the per-file head model, output cardinality, sweep active-map
// telemetry) — bench_compare gates them against the committed baseline
// in CI's bench-smoke job.

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"

namespace tempo::bench {
namespace {

constexpr uint32_t kBufferPages = 8;
constexpr int64_t kDistinctKeys = 400;
constexpr Chronon kLifespan = 100000;

struct ExecCase {
  JoinExecutor executor;
  const char* label;
};

const ExecCase kExecutors[] = {
    {JoinExecutor::kSortMerge, "sort-merge"},
    {JoinExecutor::kPartition, "partition"},
    {JoinExecutor::kInMemoryRadix, "radix"},
    {JoinExecutor::kSweep, "sweep"},
};

struct ShapeCase {
  const char* label;
  double long_frac;  // fraction of tuples with a long-lived interval
};

const ShapeCase kShapes[] = {
    {"short", 0.0},
    {"long5", 0.05},
    {"long25", 0.25},
    {"long100", 1.0},
};

// Random (key, pad) tuples; `matched` of them draw keys from the r
// side's range, the rest from a disjoint range (dials the match rate
// without touching cardinalities). `long_frac` of the intervals are
// long-lived (a quarter to half the lifespan), the rest short.
std::vector<Tuple> MakeTuples(Random& rng, size_t n, size_t matched,
                              int64_t matched_lo, int64_t unmatched_lo,
                              double long_frac) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t lo = i < matched ? matched_lo : unmatched_lo;
    const int64_t key = lo + static_cast<int64_t>(rng.Uniform(kDistinctKeys));
    const Chronon start = rng.UniformRange(0, kLifespan - 1);
    const int64_t dur = rng.Bernoulli(long_frac)
                            ? rng.UniformRange(kLifespan / 4, kLifespan / 2)
                            : rng.UniformRange(0, 50);
    out.push_back(Tuple({Value(key), Value("p" + std::to_string(i))},
                        Interval(start, start + dur)));
  }
  return out;
}

int Run() {
  const uint32_t scale = BenchScale();
  const size_t tuples_per_side = 8192 / scale;
  const CostModel model = CostModel::Ratio(5.0);
  PrintHeader("fig_sweep: endpoint sweep vs overlap executors (" +
              std::to_string(tuples_per_side) + " tuples/side, buffSize=" +
              std::to_string(kBufferPages) + ")");

  BenchOutput out("fig_sweep");
  out.SetConfig("seed", 83.0);
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

  TextTable table({"shape", "match%", "executor", "output tuples", "io ops",
                   "act cost", "wall ms"});

  for (const ShapeCase& shape : kShapes) {
    for (const int match_pct : {50, 100}) {
      Disk disk;
      Random rng(83);
      StoredRelation r(&disk, r_schema, "r");
      StoredRelation s(&disk, s_schema, "s");
      for (const Tuple& t : MakeTuples(rng, tuples_per_side, tuples_per_side,
                                       0, 0, shape.long_frac)) {
        if (!r.Append(t).ok()) return 1;
      }
      const size_t matched = tuples_per_side * match_pct / 100;
      for (const Tuple& t : MakeTuples(rng, tuples_per_side, matched, 0,
                                       kDistinctKeys, shape.long_frac)) {
        if (!s.Append(t).ok()) return 1;
      }
      if (!r.Flush().ok() || !s.Flush().ok()) return 1;

      for (const ExecCase& ec : kExecutors) {
        StoredRelation join_out(&disk, join_schema, "out");
        if (!join_out.SetCharged(false).ok()) return 1;
        disk.accountant().Reset();

        ExecContext ctx;
        JoinRequest request;
        request.From(&r, &s)
            .Using(ec.executor)
            .BufferPages(kBufferPages)
            .RadixBudgetBytes(uint64_t{16} << 20)
            .Model(model)
            .Seed(83);
        const auto wall_start = std::chrono::steady_clock::now();
        auto stats = tempo::RunJoin(request, &join_out, &ctx);
        const double wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_start)
                .count();
        if (!stats.ok()) {
          std::fprintf(stderr, "%s %s m=%d: %s\n", ec.label, shape.label,
                       match_pct, stats.status().ToString().c_str());
          return 1;
        }

        const std::string label = std::string(ec.label) + "/" + shape.label +
                                  "/m" + std::to_string(match_pct);
        out.AddRun(label, *stats, model);
        out.Add(label, "wall_seconds", wall_seconds);
        table.AddRow({shape.label, std::to_string(match_pct), ec.label,
                      Fmt(static_cast<double>(stats->output_tuples)),
                      Fmt(stats->io.total_ops()), Fmt(stats->Cost(model)),
                      Fmt(wall_seconds * 1e3)});
        disk.DeleteFile(join_out.file_id()).ok();
      }
    }
  }

  // Adjacency predicates: only the sweep executor evaluates these. Run
  // on the short-interval shape where back-to-back assignments are
  // plentiful relative to the lifespan.
  const std::pair<const char*, TemporalPredicate> adjacency[] = {
      {"meets", TemporalPredicate::Exactly(AllenRelation::kMeets)},
      {"meets-or-met-by",
       TemporalPredicate::AnyOf(
           {AllenRelation::kMeets, AllenRelation::kMetBy})},
      {"contained-in-join", TemporalPredicate::ContainedJoin()},
  };
  {
    Disk disk;
    Random rng(83);
    StoredRelation r(&disk, r_schema, "r");
    StoredRelation s(&disk, s_schema, "s");
    for (const Tuple& t :
         MakeTuples(rng, tuples_per_side, tuples_per_side, 0, 0, 0.05)) {
      if (!r.Append(t).ok()) return 1;
    }
    // Adjacent partners: every s interval starts one chronon after some
    // r interval ends, by re-rolling the same sequence shifted.
    Random rng2(83);
    for (size_t i = 0; i < tuples_per_side; ++i) {
      const int64_t key = static_cast<int64_t>(rng2.Uniform(kDistinctKeys));
      const Chronon start = rng2.UniformRange(0, kLifespan - 1);
      const int64_t dur = rng2.Bernoulli(0.05)
                              ? rng2.UniformRange(kLifespan / 4, kLifespan / 2)
                              : rng2.UniformRange(0, 50);
      const Chronon adj_start = start + dur + 1;
      if (!s.Append(Tuple({Value(key), Value("q" + std::to_string(i))},
                          Interval(adj_start, adj_start + 30)))
               .ok()) {
        return 1;
      }
    }
    if (!r.Flush().ok() || !s.Flush().ok()) return 1;

    for (const auto& [pred_label, pred] : adjacency) {
      StoredRelation join_out(&disk, join_schema, "out");
      if (!join_out.SetCharged(false).ok()) return 1;
      disk.accountant().Reset();
      ExecContext ctx;
      JoinRequest request;
      request.From(&r, &s)
          .Using(JoinExecutor::kSweep)
          .Predicate(pred)
          .BufferPages(kBufferPages)
          .Model(model)
          .Seed(83);
      const auto wall_start = std::chrono::steady_clock::now();
      auto stats = tempo::RunJoin(request, &join_out, &ctx);
      const double wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      if (!stats.ok()) {
        std::fprintf(stderr, "sweep %s: %s\n", pred_label,
                     stats.status().ToString().c_str());
        return 1;
      }
      const std::string label = std::string("sweep-pred/") + pred_label;
      out.AddRun(label, *stats, model);
      out.Add(label, "wall_seconds", wall_seconds);
      out.Add(label, "active_peak", stats->Get(Metric::kSweepActivePeak));
      table.AddRow({"adjacent", pred_label, "sweep",
                    Fmt(static_cast<double>(stats->output_tuples)),
                    Fmt(stats->io.total_ops()), Fmt(stats->Cost(model)),
                    Fmt(wall_seconds * 1e3)});
      disk.DeleteFile(join_out.file_id()).ok();
    }
  }

  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "long-lived intervals inflate sort-merge backup and partition "
      "replication;\nthe sweep's cost tracks the number of concurrently "
      "live tuples instead.\nadjacency predicates (meets/met-by) run on "
      "the sweep executor only.\n");
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
