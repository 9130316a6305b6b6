// Microbench: the in-memory columnar radix fast path vs the paged Grace
// partition join, swept across input cardinalities that straddle the
// planner's radix memory-budget cutover (budget_pages below).
//
// Per sweep point both executors run on the same generated inputs and the
// probe-phase wall-clocks are compared: the Grace path's joinPartitions
// span (partition reads + tuple-cache probe) vs the radix path's
// radix_probe span (the ordered r probe plus inline emission). Outputs
// are cross-checked for identical cardinality. Deterministic keys (I/O
// ops, output size, the grouping's occupied-slot and pass counts, the
// planner's pick) go into the JSON
// report for bench_compare; wall-clocks use *_wall_seconds / *_time_ratio
// names so the regression gate skips them.

#include <algorithm>
#include <chrono>
#include <limits>

#include "bench_util.h"
#include "core/planner.h"
#include "core/radix_join.h"

namespace tempo::bench {
namespace {

/// Fixed planning budget for the sweep: 1 MiB. The smallest points fit
/// comfortably, the largest exceed it several times over, so the sweep
/// crosses the planner's radix-vs-paged cutover in the middle.
constexpr uint32_t kBudgetPages = 256;

/// Best-of-N timing: the deterministic values (I/O, output, buckets) are
/// identical across reps, only wall-clock varies.
constexpr int kReps = 3;

std::string Fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

struct PathTiming {
  JoinRunStats stats;
  double wall_seconds = std::numeric_limits<double>::infinity();
  double probe_wall_seconds = std::numeric_limits<double>::infinity();
};

/// Times one executor on (r, s): end-to-end wall and the probe-phase span
/// wall, best of kReps. The paged run forces the real Grace machinery
/// (partition write + read) even when the inputs would fit the buffer —
/// that is the executor the radix path replaces, and it keeps the series
/// comparable across the whole sweep.
StatusOr<PathTiming> TimePath(bool radix, StoredRelation* r, StoredRelation* s,
                              const CostModel& model) {
  Disk* disk = r->disk();
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(r->schema(), s->schema()));
  PathTiming best;
  for (int rep = 0; rep < kReps; ++rep) {
    StoredRelation out(disk, layout.output, "bench.out");
    TEMPO_RETURN_IF_ERROR(out.SetCharged(false));
    disk->accountant().Reset();
    ExecContext ctx;
    const auto wall_start = std::chrono::steady_clock::now();
    JoinRequest req;
    req.From(r, s).Model(model);
    if (radix) {
      // The sweep measures the path itself past the planner's cutover, so
      // lift the budget out of the way instead of falling back.
      req.Using(JoinExecutor::kInMemoryRadix)
          .BufferPages(kBudgetPages)
          .RadixBudgetBytes(uint64_t{1} << 40);
    } else {
      req.Using(JoinExecutor::kPartition)
          .BufferPages(std::max<uint32_t>(8, r->num_pages() / 4));
    }
    StatusOr<JoinRunStats> stats = tempo::RunJoin(req, &out, &ctx);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    disk->DeleteFile(out.file_id()).ok();
    TEMPO_RETURN_IF_ERROR(stats.status());
    const SpanNode* probe = ctx.tracer().root().FindPhase(
        radix ? Phase::kRadixProbe : Phase::kJoinPartitions);
    const double probe_wall =
        probe != nullptr ? probe->stats.wall_seconds : wall;
    best.wall_seconds = std::min(best.wall_seconds, wall);
    best.probe_wall_seconds = std::min(best.probe_wall_seconds, probe_wall);
    if (rep == 0) best.stats = *stats;
  }
  return best;
}

int Run() {
  const uint32_t scale = BenchScale();
  PrintHeader("micro_radix: columnar radix fast path vs paged Grace join "
              "(scale 1/" + std::to_string(scale) + ")");

  BenchOutput out("micro_radix");
  out.SetConfig("seed", 900.0);
  out.SetConfig("cost_model_ratio", 5.0);
  out.SetConfig("budget_pages", static_cast<double>(kBudgetPages));
  const CostModel model = CostModel::Ratio(5.0);

  Disk disk;
  TextTable table({"tuples/side", "pages/side", "planner picks", "buckets",
                   "passes", "paged probe ms", "radix probe ms", "speedup"});
  double min_speedup = std::numeric_limits<double>::infinity();
  double max_speedup = 0.0;

  const uint64_t kSweep[] = {1024, 2048, 4096, 8192, 16384, 32768};
  for (uint64_t base : kSweep) {
    const uint64_t n = std::max<uint64_t>(base / scale, 64);
    WorkloadSpec spec;
    spec.num_tuples = n;
    spec.num_long_lived = n / 16;
    spec.lifespan = paper::kLifespan;
    spec.distinct_keys = std::max<uint64_t>(1, n / 10);  // ~10 tuples/key
    spec.tuple_bytes = paper::kTupleBytes;
    spec.seed = 900 + base;
    auto r_or = GenerateRelation(&disk, spec, "r" + std::to_string(base));
    spec.seed += 1;
    auto s_or = GenerateRelation(&disk, spec, "s" + std::to_string(base));
    if (!r_or.ok() || !s_or.ok()) {
      std::fprintf(stderr, "workload generation failed\n");
      return 1;
    }
    StoredRelation* r = r_or->get();
    StoredRelation* s = s_or->get();

    // What the planner would pick at the fixed budget — the cutover the
    // sweep exists to exercise.
    ExecOptions plan_options;
    plan_options.buffer_pages = kBudgetPages;
    plan_options.cost_model = model;
    const JoinPlan plan = PlanVtJoin(r, s, plan_options);

    auto paged_or = TimePath(/*radix=*/false, r, s, model);
    auto radix_or = TimePath(/*radix=*/true, r, s, model);
    if (!paged_or.ok() || !radix_or.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   (!paged_or.ok() ? paged_or : radix_or)
                       .status().ToString().c_str());
      return 1;
    }
    const PathTiming& paged = *paged_or;
    const PathTiming& radix = *radix_or;
    if (paged.stats.output_tuples != radix.stats.output_tuples) {
      std::fprintf(stderr,
                   "output mismatch at n=%llu: paged=%llu radix=%llu\n",
                   static_cast<unsigned long long>(n),
                   static_cast<unsigned long long>(paged.stats.output_tuples),
                   static_cast<unsigned long long>(radix.stats.output_tuples));
      return 1;
    }

    const double speedup =
        paged.probe_wall_seconds / std::max(radix.probe_wall_seconds, 1e-9);
    min_speedup = std::min(min_speedup, speedup);
    max_speedup = std::max(max_speedup, speedup);

    const std::string label = "n=" + std::to_string(base);
    out.Add(label, "pages_r", r->num_pages());
    out.Add(label, "pages_s", s->num_pages());
    out.Add(label, "output_tuples",
            static_cast<double>(radix.stats.output_tuples));
    out.Add(label, "planned_algorithm",
            static_cast<double>(static_cast<int>(plan.algorithm)));
    out.Add(label, "radix_io_ops", radix.stats.io.total_ops());
    out.Add(label, "paged_io_ops", paged.stats.io.total_ops());
    out.Add(label, "radix_buckets", radix.stats.Get(Metric::kRadixBuckets));
    out.Add(label, "radix_passes", radix.stats.Get(Metric::kRadixPasses));
    out.Add(label, "paged_probe_wall_seconds", paged.probe_wall_seconds);
    out.Add(label, "radix_probe_wall_seconds", radix.probe_wall_seconds);
    out.Add(label, "paged_wall_seconds", paged.wall_seconds);
    out.Add(label, "radix_wall_seconds", radix.wall_seconds);
    out.Add(label, "probe_speedup_time_ratio", speedup);

    table.AddRow({FormatWithCommas(static_cast<int64_t>(n)),
                  std::to_string(r->num_pages()),
                  JoinAlgorithmName(plan.algorithm),
                  Fmt(radix.stats.Get(Metric::kRadixBuckets)),
                  Fmt(radix.stats.Get(Metric::kRadixPasses)),
                  Fmt2(paged.probe_wall_seconds * 1e3),
                  Fmt2(radix.probe_wall_seconds * 1e3),
                  Fmt2(speedup) + "x"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("probe-phase speedup (paged probe wall / radix probe wall): "
              "min %.2fx, max %.2fx\n",
              min_speedup, max_speedup);
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
