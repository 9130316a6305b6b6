// Ablation: incremental view maintenance vs recomputation (the paper's
// closing direction, Section 5 / [SSJ93]: the partition join "adapts
// easily to an incremental evaluation framework").
//
// Builds a materialized valid-time join view, then measures the I/O of
// maintaining it under single-tuple inserts (short-lived and long-lived)
// against the cost of recomputing the join from scratch.

#include <vector>

#include "bench_util.h"
#include "incremental/materialized_view.h"

namespace tempo::bench {
namespace {

int Run() {
  const uint32_t scale = BenchScale() * 4;  // view build is O(n) rewrites
  PrintHeader("Ablation: incremental maintenance vs recompute (scale 1/" +
              std::to_string(scale) + ")");
  const uint32_t memory_pages = std::max<uint32_t>(8, 2048 / scale);
  const CostModel model = CostModel::Ratio(5.0);

  BenchOutput out("ablation_incremental");
  out.SetConfig("cost_model_ratio", 5.0);
  out.SetConfig("seed", 1700.0);

  Disk disk;
  auto r_or = GenerateRelation(&disk, PaperWorkload(scale, 16000, 1700), "r");
  auto s_or = GenerateRelation(&disk, PaperWorkload(scale, 16000, 1800), "s");
  if (!r_or.ok() || !s_or.ok()) return 1;
  StoredRelation* r = r_or->get();
  StoredRelation* s = s_or->get();

  // Full recompute baseline.
  auto full = RunJoin(JoinExecutor::kPartition, r, s, memory_pages, model,
                      /*seed=*/42, &out, "full recompute");
  if (!full.ok()) return 1;
  double recompute_cost = full->Cost(model);

  // Build the view.
  disk.accountant().Reset();
  MaterializedVtJoinView view(&disk, "view");
  Status st = view.Build(r, s, memory_pages);
  if (!st.ok()) {
    std::fprintf(stderr, "view build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  double build_cost = disk.accountant().stats().Cost(model);

  // Maintenance costs, averaged over a batch.
  Random rng(9);
  auto measure_inserts = [&](Chronon duration) -> StatusOr<double> {
    double total = 0.0;
    const int kBatch = 20;
    for (int i = 0; i < kBatch; ++i) {
      Chronon start = rng.UniformRange(0, paper::kLifespan - duration - 1);
      Tuple t = MakeBenchTuple(
          static_cast<int64_t>(rng.Uniform(paper::kDistinctKeys / scale)),
          Interval(start, start + duration), paper::kTupleBytes);
      TEMPO_ASSIGN_OR_RETURN(auto stats, view.InsertR(t));
      total += stats.io.Cost(model);
    }
    return total / kBatch;
  };

  auto short_cost = measure_inserts(1);
  auto long_cost = measure_inserts(paper::kLifespan / 2);
  if (!short_cost.ok() || !long_cost.ok()) {
    std::fprintf(stderr, "insert failed\n");
    return 1;
  }

  TextTable table({"operation", "cost 5:1", "x of full recompute"});
  auto ratio = [&](double c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4fx", c / recompute_cost);
    return std::string(buf);
  };
  out.Add("view build", "act_cost", build_cost);
  out.Add("insert short", "act_cost", *short_cost);
  out.Add("insert long_lived", "act_cost", *long_cost);
  table.AddRow({"full partition join", Fmt(recompute_cost), "1x"});
  table.AddRow({"view build (with caches)", Fmt(build_cost),
                ratio(build_cost)});
  table.AddRow({"insert 1-chronon tuple", Fmt(*short_cost),
                ratio(*short_cost)});
  table.AddRow({"insert half-lifespan tuple", Fmt(*long_cost),
                ratio(*long_cost)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("view partitions: %zu\n\n", view.num_partitions());
  std::printf(
      "Expected: a short insert touches one partition and costs a tiny\n"
      "fraction of recomputation; a long-lived insert touches every\n"
      "overlapped partition and costs proportionally more, but still far\n"
      "less than a full join.\n");
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
