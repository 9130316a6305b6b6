// Microbenchmarks: the partition join's building blocks — boundary
// selection, cache estimation, Grace partitioning and the in-memory join
// kernel (ProbeFlatIndex, the grouped probe every build-side executor
// shares).

#include <benchmark/benchmark.h>

#include <cstring>

#include "micro_util.h"

#include "core/choose_intervals.h"
#include "core/estimate_cache.h"
#include "core/grace_partitioner.h"
#include "join/flat_index.h"
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

/// The probe kernel over a build side larger than L2: 32,768 rows of
/// 128-byte records (4 MiB of record bytes plus 768 KiB of views) on 4,096
/// keys, probed by 4,096 records about two matches apiece. Each match
/// copies its build record, as an emission does, so the time per result
/// includes the record's cache miss; ns_per_result is the figure to read.
void BM_HashProbeJoinKernel(benchmark::State& state) {
  Random rng(6);
  Schema schema = BenchSchema();
  std::vector<size_t> keys{0};
  ColumnExtractor area(&schema, &keys);
  Page page;
  std::string rec;
  for (int i = 0; i < 32768; ++i) {
    Chronon s = rng.UniformRange(0, 100000);
    rec.clear();
    MakeBenchTuple(static_cast<int64_t>(rng.Uniform(4096)),
                   Interval(s, s + 2000), 128)
        .SerializeTo(schema, &rec);
    if (!page.AddRecord(rec).has_value()) {
      TEMPO_CHECK(area.AddPage(page).ok());
      page = Page();
      TEMPO_CHECK(page.AddRecord(rec).has_value());
    }
  }
  TEMPO_CHECK(area.AddPage(page).ok());
  FlatIndex index;
  index.Build(area, 0, area.num_rows());
  std::vector<std::string> probe_recs(4096);
  std::vector<TupleView> probes;
  for (std::string& probe_rec : probe_recs) {
    Chronon s = rng.UniformRange(0, 100000);
    MakeBenchTuple(static_cast<int64_t>(rng.Uniform(4096)),
                   Interval(s, s + 20000), 128)
        .SerializeTo(schema, &probe_rec);
    probes.push_back(TupleView::Trusted(schema.layout(), probe_rec.data(),
                                        probe_rec.size()));
  }
  const TemporalPredicate overlap;
  std::vector<char> sink(1 << 16);
  size_t pos = 0;
  uint64_t results = 0;
  for (auto _ : state) {
    Status st = ProbeFlatIndex(
        area, index, probes.size(),
        [&](size_t i) { return FlatProbe::Of(probes[i], keys); }, keys,
        overlap, nullptr, [&](size_t, size_t row, const Interval&) {
          const std::string_view bytes = area.view(row).record();
          if (pos + bytes.size() > sink.size()) pos = 0;
          std::memcpy(sink.data() + pos, bytes.data(), bytes.size());
          pos += bytes.size();
          ++results;
          return Status::OK();
        });
    TEMPO_CHECK(st.ok());
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(results));
  state.counters["ns_per_result"] = benchmark::Counter(
      static_cast<double>(results),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_HashProbeJoinKernel);

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_core")
