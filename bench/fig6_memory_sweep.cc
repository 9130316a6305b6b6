// Reproduces Figure 6: "Performance Effects of Main Memory Size".
//
// Two 32 MiB relations (262,144 one-chronon tuples each, no long-lived
// tuples), joined with nested-loops, sort-merge and the partition join at
// main-memory allocations from 1 to 32 MiB, under random:sequential cost
// ratios 2:1, 5:1 and 10:1. Prints one paper-style series per
// (algorithm, ratio): weighted I/O cost vs memory.
//
// Expected shape (paper Section 4.2): nested-loops is catastrophic at
// small memory and competitive at 32 MiB; the partition join is roughly
// half the cost of sort-merge and uniformly good at all sizes.

#include <cinttypes>
#include <vector>

#include "bench_util.h"
#include "join/nested_loop_join.h"

namespace tempo::bench {
namespace {

int Run() {
  const uint32_t scale = BenchScale();
  PrintHeader("Figure 6: I/O cost vs main memory (scale 1/" +
              std::to_string(scale) + ")");

  BenchOutput out("fig6_memory_sweep");
  out.SetConfig("seed", 101.0);

  Disk disk;
  auto r_or = GenerateRelation(&disk, PaperWorkload(scale, 0, 101), "r");
  auto s_or = GenerateRelation(&disk, PaperWorkload(scale, 0, 202), "s");
  if (!r_or.ok() || !s_or.ok()) {
    std::fprintf(stderr, "workload generation failed\n");
    return 1;
  }
  StoredRelation* r = r_or->get();
  StoredRelation* s = s_or->get();
  std::printf("relations: %s tuples x2, %s pages each\n\n",
              FormatWithCommas(r->num_tuples()).c_str(),
              FormatWithCommas(r->num_pages()).c_str());

  const std::vector<uint32_t> memory_mib = {1, 2, 4, 8, 16, 32};

  TextTable table({"memory", "algorithm", "ratio 2:1", "ratio 5:1",
                   "ratio 10:1", "raw ops (ran/seq)"});
  for (uint32_t mib : memory_mib) {
    uint32_t pages = mib * 256 / scale;  // 256 pages per MiB at 4 KiB
    if (pages < 8) pages = 8;
    for (JoinExecutor algo : {JoinExecutor::kSortMerge,
                              JoinExecutor::kPartition,
                              JoinExecutor::kNestedLoop}) {
      std::vector<std::string> row{std::to_string(mib) + " MiB",
                                   JoinExecutorName(algo)};
      IoStats io;
      const std::string base_label =
          "mem=" + std::to_string(mib) + "MiB algo=" +
          JoinExecutorName(algo);
      if (algo == JoinExecutor::kPartition) {
        // The optimizer consults the ratio, so run per ratio.
        for (double ratio : paper::kRatios) {
          const std::string label =
              base_label + " ratio=" + std::to_string(static_cast<int>(ratio));
          auto stats = RunJoin(algo, r, s, pages, CostModel::Ratio(ratio),
                               /*seed=*/42, &out, label);
          if (!stats.ok()) {
            std::fprintf(stderr, "%s failed: %s\n", JoinExecutorName(algo),
                         stats.status().ToString().c_str());
            return 1;
          }
          row.push_back(Fmt(stats->Cost(CostModel::Ratio(ratio))));
          io = stats->io;
        }
      } else {
        // NL and SM perform identical I/O regardless of the ratio: run
        // once, weight three ways.
        auto stats = RunJoin(algo, r, s, pages, CostModel::Ratio(5.0),
                             /*seed=*/42, &out, base_label);
        if (!stats.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", JoinExecutorName(algo),
                       stats.status().ToString().c_str());
          return 1;
        }
        for (double ratio : paper::kRatios) {
          row.push_back(Fmt(stats->Cost(CostModel::Ratio(ratio))));
          out.Add(base_label,
                  "cost_ratio_" + std::to_string(static_cast<int>(ratio)),
                  stats->Cost(CostModel::Ratio(ratio)));
        }
        io = stats->io;
      }
      row.push_back(FormatWithCommas(io.total_random()) + "/" +
                    FormatWithCommas(io.total_sequential()));
      table.AddRow(std::move(row));
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  // The analytic nested-loops model the paper used, for cross-checking.
  TextTable analytic({"memory", "NL analytic 5:1"});
  for (uint32_t mib : memory_mib) {
    uint32_t pages = std::max<uint32_t>(8, mib * 256 / scale);
    analytic.AddRow({std::to_string(mib) + " MiB",
                     Fmt(NestedLoopAnalyticCost(r->num_pages(), s->num_pages(),
                                                pages, CostModel::Ratio(5.0)))});
  }
  std::printf("%s\n", analytic.ToString().c_str());
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
