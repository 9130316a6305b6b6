// Microbenchmarks: the partition join's building blocks — boundary
// selection, cache estimation, Grace partitioning and the in-memory join
// kernel (the FlatIndex probe every build-side executor shares).

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include "core/choose_intervals.h"
#include "core/estimate_cache.h"
#include "core/grace_partitioner.h"
#include "join/build_area.h"
#include "workload/generator.h"

namespace tempo {
namespace {

std::vector<Interval> MakeSamples(size_t n, double long_lived_frac,
                                  uint64_t seed) {
  Random rng(seed);
  std::vector<Interval> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(long_lived_frac)) {
      Chronon s = rng.UniformRange(0, 500000);
      out.push_back(Interval(s, s + 500000));
    } else {
      out.push_back(Interval::At(rng.UniformRange(0, 999999)));
    }
  }
  return out;
}

void BM_ChooseIntervals(benchmark::State& state) {
  auto samples = MakeSamples(static_cast<size_t>(state.range(0)), 0.2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChooseIntervals(samples, 16).num_partitions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChooseIntervals)->Arg(256)->Arg(4096)->Arg(65536);

void BM_CoverageIndexChoose(benchmark::State& state) {
  CoverageIndex index(MakeSamples(65536, 0.2, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Choose(static_cast<uint32_t>(state.range(0))).num_partitions());
  }
}
BENCHMARK(BM_CoverageIndexChoose)->Arg(4)->Arg(64)->Arg(1024);

void BM_EstimateCacheSizes(benchmark::State& state) {
  auto samples = MakeSamples(static_cast<size_t>(state.range(0)), 0.3, 3);
  PartitionSpec spec = ChooseIntervals(samples, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateCacheSizes(samples, 262144, 32.0, spec).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EstimateCacheSizes)->Arg(4096)->Arg(65536);

void BM_GracePartition(benchmark::State& state) {
  Disk disk;
  WorkloadSpec spec;
  spec.num_tuples = 16384;
  spec.num_long_lived = 2048;
  spec.distinct_keys = 1024;
  spec.seed = 4;
  auto rel = GenerateRelation(&disk, spec, "r");
  auto samples = MakeSamples(2048, 0.1, 5);
  PartitionSpec pspec = ChooseIntervals(samples, 16);
  for (auto _ : state) {
    auto parts = GracePartition(rel->get(), pspec, 64,
                                PlacementPolicy::kLastOverlap, "p");
    benchmark::DoNotOptimize(parts.ok());
  }
  state.SetItemsProcessed(state.iterations() * spec.num_tuples);
}
BENCHMARK(BM_GracePartition);

void BM_HashProbeJoinKernel(benchmark::State& state) {
  Random rng(6);
  Schema schema = BenchSchema();
  std::vector<size_t> keys{0};
  BuildArea area(&schema, &keys);
  Page page;
  std::string rec;
  for (int i = 0; i < 4096; ++i) {
    Chronon s = rng.UniformRange(0, 100000);
    rec.clear();
    MakeBenchTuple(static_cast<int64_t>(rng.Uniform(512)),
                   Interval(s, s + 100), 64)
        .SerializeTo(schema, &rec);
    if (!page.AddRecord(rec).has_value()) {
      TEMPO_CHECK(area.AddPage(page).ok());
      page = Page();
      TEMPO_CHECK(page.AddRecord(rec).has_value());
    }
  }
  TEMPO_CHECK(area.AddPage(page).ok());
  FlatIndex index;
  index.Build(area, 0, area.size());
  std::string probe_rec;
  MakeBenchTuple(37, Interval(500, 700), 64).SerializeTo(schema, &probe_rec);
  const TupleView probe =
      TupleView::Trusted(schema.layout(), probe_rec.data(), probe_rec.size());
  const TemporalPredicate overlap;
  for (auto _ : state) {
    uint64_t matches = 0;
    ForEachFlatMatch(area, index, probe, keys, overlap, nullptr,
                     [&](size_t, const Interval&) { ++matches; });
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_HashProbeJoinKernel);

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_core")
