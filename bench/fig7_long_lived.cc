// Reproduces Figure 7: "Performance Effects of Long-Lived Tuples".
//
// Databases with an increasing number of long-lived tuples (8,000 to
// 128,000 in 8,000-tuple steps — 3% to 48% of the relation, the paper's
// x-axis), 8 MiB of main memory, random:sequential ratio fixed at 5:1.
// Non-long-lived tuples are one chronon long; long-lived tuples start in
// the first half of the lifespan and last half a lifespan (Section 4.3).
//
// Expected shape: the partition join outperforms sort-merge at every
// density; sort-merge grows (back-up cost); nested-loops is flat.

#include <vector>

#include "bench_util.h"

namespace tempo::bench {
namespace {

int Run() {
  const uint32_t scale = BenchScale();
  PrintHeader("Figure 7: I/O cost vs long-lived tuples (scale 1/" +
              std::to_string(scale) + ")");

  const uint32_t memory_pages = 2048 / scale;  // 8 MiB
  const CostModel model = CostModel::Ratio(5.0);
  std::printf("memory: %u pages, ratio 5:1\n\n", memory_pages);

  BenchOutput out("fig7_long_lived");
  out.SetConfig("cost_model_ratio", 5.0);

  TextTable table({"long-lived", "% of rel", "sort-merge", "partition",
                   "nested-loops", "SM backups", "PJ cache pages"});
  for (uint64_t long_lived = 8000; long_lived <= 128000;
       long_lived += 8000) {
    Disk disk;
    auto r_or = GenerateRelation(
        &disk, PaperWorkload(scale, long_lived, 300 + long_lived), "r");
    auto s_or = GenerateRelation(
        &disk, PaperWorkload(scale, long_lived, 400 + long_lived), "s");
    if (!r_or.ok() || !s_or.ok()) {
      std::fprintf(stderr, "workload generation failed\n");
      return 1;
    }
    StoredRelation* r = r_or->get();
    StoredRelation* s = s_or->get();

    const std::string ll = "long_lived=" + std::to_string(long_lived);
    auto sm = RunJoin(JoinExecutor::kSortMerge, r, s, memory_pages, model,
                      /*seed=*/42, &out, ll + " algo=sort-merge");
    auto pj = RunJoin(JoinExecutor::kPartition, r, s, memory_pages, model,
                      /*seed=*/42, &out, ll + " algo=partition");
    auto nl = RunJoin(JoinExecutor::kNestedLoop, r, s, memory_pages, model,
                      /*seed=*/42, &out, ll + " algo=nested-loop");
    if (!sm.ok() || !pj.ok() || !nl.ok()) {
      std::fprintf(stderr, "join failed\n");
      return 1;
    }
    out.Add(ll + " algo=sort-merge", "backup_page_reads",
            sm->Get(Metric::kBackupPageReads));
    out.Add(ll + " algo=partition", "cache_pages_spilled",
            pj->Get(Metric::kCachePagesSpilled));
    double pct = 100.0 * static_cast<double>(long_lived) /
                 static_cast<double>(paper::kTuplesPerRelation);
    char pct_buf[16];
    std::snprintf(pct_buf, sizeof(pct_buf), "%.0f%%", pct);
    table.AddRow({FormatWithCommas(static_cast<int64_t>(long_lived / scale)),
                  pct_buf, Fmt(sm->Cost(model)), Fmt(pj->Cost(model)),
                  Fmt(nl->Cost(model)), Fmt(sm->Get(Metric::kBackupPageReads)),
                  Fmt(pj->Get(Metric::kCachePagesSpilled))});
  }
  std::printf("%s\n", table.ToString().c_str());
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
