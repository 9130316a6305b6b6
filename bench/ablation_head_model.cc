// Ablation: sensitivity of the Section 4 results to the I/O
// classification model.
//
// The paper's cost statements (Appendix A.1) treat each logical stream as
// keeping its own sequentiality even when streams interleave — our
// per-file head model. A stricter single-head model charges a seek for
// every switch between files. This bench reruns the core comparison under
// both models: the paper's qualitative conclusions (partition < sort-merge
// < nested-loops at modest memory) should hold under either.

#include <vector>

#include "bench_util.h"

namespace tempo::bench {
namespace {

int Run() {
  const uint32_t scale = BenchScale();
  PrintHeader("Ablation: per-file vs single-head I/O accounting (scale 1/" +
              std::to_string(scale) + ")");
  const uint32_t memory_pages = 2048 / scale;  // 8 MiB
  const CostModel model = CostModel::Ratio(5.0);

  BenchOutput out("ablation_head_model");
  out.SetConfig("cost_model_ratio", 5.0);

  Disk disk;
  auto r_or = GenerateRelation(&disk, PaperWorkload(scale, 32000, 1500), "r");
  auto s_or = GenerateRelation(&disk, PaperWorkload(scale, 32000, 1600), "s");
  if (!r_or.ok() || !s_or.ok()) return 1;

  TextTable table({"head model", "algorithm", "ran/seq", "cost 5:1"});
  for (HeadModel head : {HeadModel::kPerFile, HeadModel::kSingleHead}) {
    disk.accountant().set_head_model(head);
    for (JoinExecutor algo : {JoinExecutor::kSortMerge,
                              JoinExecutor::kPartition,
                              JoinExecutor::kNestedLoop}) {
      const std::string label =
          std::string("head=") +
          (head == HeadModel::kPerFile ? "per-file" : "single-head") +
          " algo=" + JoinExecutorName(algo);
      auto stats = RunJoin(algo, r_or->get(), s_or->get(), memory_pages,
                           model, /*seed=*/42, &out, label);
      if (!stats.ok()) {
        std::fprintf(stderr, "join failed: %s\n",
                     stats.status().ToString().c_str());
        return 1;
      }
      table.AddRow({head == HeadModel::kPerFile ? "per-file (paper)"
                                                : "single-head",
                    JoinExecutorName(algo),
                    FormatWithCommas(stats->io.total_random()) + "/" +
                        FormatWithCommas(stats->io.total_sequential()),
                    Fmt(stats->Cost(model))});
    }
  }
  disk.accountant().set_head_model(HeadModel::kPerFile);
  std::printf("%s\n", table.ToString().c_str());
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
