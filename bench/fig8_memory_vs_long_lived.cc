// Reproduces Figure 8: "Relative Effects of Main Memory Size and Tuple
// Caching".
//
// Eight databases with 16,000 to 128,000 long-lived tuples (16,000-tuple
// steps), the partition join run on each at 1, 2, 4, 16 and 32 MiB of
// main memory (the paper's trial set), ratio 5:1.
//
// Expected shape: at 16 and 32 MiB the curves for all databases become
// nearly equal (tuple caching is insignificant given memory); at small
// memory the long-lived density spreads the costs apart.

#include <vector>

#include "bench_util.h"

namespace tempo::bench {
namespace {

int Run() {
  const uint32_t scale = BenchScale();
  PrintHeader(
      "Figure 8: partition-join cost vs memory and long-lived density "
      "(scale 1/" + std::to_string(scale) + ")");
  const CostModel model = CostModel::Ratio(5.0);
  const std::vector<uint32_t> memory_mib = {1, 2, 4, 16, 32};

  BenchOutput out("fig8_memory_vs_long_lived");
  out.SetConfig("cost_model_ratio", 5.0);

  std::vector<std::string> header{"long-lived"};
  for (uint32_t mib : memory_mib) {
    header.push_back(std::to_string(mib) + " MiB");
  }
  header.push_back("cache pages @1MiB");
  TextTable table(header);

  for (uint64_t long_lived = 16000; long_lived <= 128000;
       long_lived += 16000) {
    Disk disk;
    auto r_or = GenerateRelation(
        &disk, PaperWorkload(scale, long_lived, 500 + long_lived), "r");
    auto s_or = GenerateRelation(
        &disk, PaperWorkload(scale, long_lived, 600 + long_lived), "s");
    if (!r_or.ok() || !s_or.ok()) {
      std::fprintf(stderr, "workload generation failed\n");
      return 1;
    }
    std::vector<std::string> row{
        FormatWithCommas(static_cast<int64_t>(long_lived / scale))};
    double cache_at_1mib = 0.0;
    for (uint32_t mib : memory_mib) {
      uint32_t pages = std::max<uint32_t>(8, mib * 256 / scale);
      const std::string label = "long_lived=" + std::to_string(long_lived) +
                                " mem=" + std::to_string(mib) + "MiB";
      auto pj = RunJoin(JoinExecutor::kPartition, r_or->get(), s_or->get(),
                        pages, model, /*seed=*/42, &out, label);
      if (!pj.ok()) {
        std::fprintf(stderr, "partition join failed: %s\n",
                     pj.status().ToString().c_str());
        return 1;
      }
      out.Add(label, "cache_pages_spilled",
              pj->Get(Metric::kCachePagesSpilled));
      row.push_back(Fmt(pj->Cost(model)));
      if (mib == memory_mib.front()) {
        cache_at_1mib = pj->Get(Metric::kCachePagesSpilled);
      }
    }
    row.push_back(Fmt(cache_at_1mib));
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToString().c_str());
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
