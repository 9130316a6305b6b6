// Microbenchmarks: record serialization and parsing, slotted-page
// operations and the simulated disk path.

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include "relation/tuple_view.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "storage/stored_relation.h"
#include "workload/generator.h"

namespace tempo {
namespace {

Tuple SampleTuple() {
  return MakeBenchTuple(1234567, Interval(1000, 501000), 123);
}

void BM_TupleSerialize(benchmark::State& state) {
  Schema schema = BenchSchema();
  Tuple t = SampleTuple();
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    t.SerializeTo(schema, &buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_TupleSerialize);

void BM_RecordParse(benchmark::State& state) {
  Schema schema = BenchSchema();
  Tuple t = SampleTuple();
  std::string buf;
  t.SerializeTo(schema, &buf);
  for (auto _ : state) {
    auto view = TupleView::Make(schema.layout(), buf.data(), buf.size());
    benchmark::DoNotOptimize(view.ok());
  }
  state.SetBytesProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_RecordParse);

void BM_PageFill(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::string record;
  SampleTuple().SerializeTo(schema, &record);
  for (auto _ : state) {
    Page page;
    while (page.AddRecord(record).has_value()) {
    }
    benchmark::DoNotOptimize(page.num_records());
  }
}
BENCHMARK(BM_PageFill);

void BM_SequentialScan(benchmark::State& state) {
  Disk disk;
  WorkloadSpec spec;
  spec.num_tuples = 32768;
  spec.distinct_keys = 1024;
  spec.seed = 5;
  auto rel = GenerateRelation(&disk, spec, "r");
  for (auto _ : state) {
    uint64_t count = 0;
    auto st = (*rel)->ForEachView([&](const TupleView& v) {
      count += v.interval().start() >= 0;
      return Status::OK();
    });
    benchmark::DoNotOptimize(st.ok());
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * spec.num_tuples);
}
BENCHMARK(BM_SequentialScan);

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_storage")
