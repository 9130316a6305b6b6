// Reproduces Figure 4: "I/O Cost for Partition Size".
//
// The optimizer's cost model evaluated at every candidate partition size
// for a long-lived-heavy workload: the sampling cost C_sample rises
// monotonically with partSize (smaller error space needs more samples,
// plateauing at the in-scan bound), the tuple-cache paging cost falls
// (larger partitions are overlapped by fewer tuples), and the chosen
// partition size minimizes the sum (marked "<== min").

#include <limits>
#include <vector>

#include "bench_util.h"

namespace tempo::bench {
namespace {

int Run() {
  const uint32_t scale = BenchScale();
  PrintHeader("Figure 4: sampling vs tuple-cache cost per partition size "
              "(scale 1/" + std::to_string(scale) + ")");

  BenchOutput out("fig4_cost_tradeoff");
  out.SetConfig("seed", 700.0);
  out.SetConfig("cost_model_ratio", 5.0);

  Disk disk;
  auto r_or = GenerateRelation(&disk, PaperWorkload(scale, 64000, 700), "r");
  if (!r_or.ok()) {
    std::fprintf(stderr, "workload generation failed\n");
    return 1;
  }
  StoredRelation* r = r_or->get();

  PartitionPlanOptions options;
  options.buffer_pages = 2048 / scale;  // 8 MiB
  options.cost_model = CostModel::Ratio(5.0);
  Random rng(7);
  auto curve_or = PartitionCostCurve(r, options, &rng);
  if (!curve_or.ok()) {
    std::fprintf(stderr, "cost curve failed: %s\n",
                 curve_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<PartitionCostPoint>& curve = *curve_or;

  double best = std::numeric_limits<double>::infinity();
  size_t best_idx = 0;
  for (size_t i = 0; i < curve.size(); ++i) {
    if (curve[i].total() <= best) {
      best = curve[i].total();
      best_idx = i;
    }
  }

  TextTable table({"partSize", "partitions", "samples", "C_sample",
                   "C_cache", "C_partition", "sum", ""});
  // Print a readable subset: every k-th candidate plus the minimum.
  size_t step = curve.size() > 24 ? curve.size() / 24 : 1;
  for (size_t i = 0; i < curve.size(); ++i) {
    const PartitionCostPoint& p = curve[i];
    // Every candidate goes into the JSON report (the baseline bench_compare
    // regresses against); the table prints the readable subset.
    const std::string label = "partSize=" + std::to_string(p.part_size_pages);
    out.Add(label, "partitions", p.num_partitions);
    out.Add(label, "samples", p.required_samples);
    out.Add(label, "c_sample", p.c_sample);
    out.Add(label, "c_cache", p.c_cache);
    out.Add(label, "c_partition", p.c_partition);
    out.Add(label, "c_total", p.total());
    out.Add(label, "chosen", i == best_idx ? 1.0 : 0.0);
    if (i % step != 0 && i != best_idx && i != curve.size() - 1) continue;
    table.AddRow({std::to_string(p.part_size_pages),
                  std::to_string(p.num_partitions),
                  FormatWithCommas(static_cast<int64_t>(p.required_samples)),
                  Fmt(p.c_sample), Fmt(p.c_cache), Fmt(p.c_partition),
                  Fmt(p.total()), i == best_idx ? "<== min" : ""});
  }
  std::printf("%s\n", table.ToString().c_str());

  // The monotonicity properties the figure illustrates.
  bool sample_monotone = true, cache_monotone = true;
  for (size_t i = 1; i < curve.size(); ++i) {
    if (curve[i].c_sample + 1e-9 < curve[i - 1].c_sample) {
      sample_monotone = false;
    }
    if (curve[i].c_cache > curve[i - 1].c_cache + 1e-9) {
      cache_monotone = false;
    }
  }
  std::printf("C_sample non-decreasing in partSize: %s\n",
              sample_monotone ? "yes" : "no");
  std::printf("C_cache  non-increasing in partSize: %s\n",
              cache_monotone ? "yes" : "no");

  if (BenchTraced() || !BenchJsonDir().empty()) {
    // End-to-end smoke of the partitioning the curve prices: run the
    // partition join at the chosen buffer size; RunJoin prints the
    // EXPLAIN ANALYZE span tree (sampling / chooseIntervals /
    // partitioning / joinPartitions) with estimated vs. actual cost, and
    // writes the Perfetto trace when TEMPO_TRACE_OUT is set. The JSON
    // report gets the run's est-vs-actual point either way.
    auto s_or = GenerateRelation(&disk, PaperWorkload(scale, 64000, 701), "s");
    if (!s_or.ok()) {
      std::fprintf(stderr, "workload generation failed\n");
      return 1;
    }
    auto stats = RunJoin(JoinExecutor::kPartition, r, s_or->get(),
                         options.buffer_pages, options.cost_model,
                         /*seed=*/42, &out, "end-to-end partition join");
    if (!stats.ok()) {
      std::fprintf(stderr, "traced join failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
  }
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
