// Microbenchmarks for the zero-copy record-view hot path: page decode
// into page-backed TupleViews, join-key hashing over the views, and
// interval-only access.

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include "relation/tuple_view.h"
#include "storage/page.h"
#include "storage/page_arena.h"
#include "storage/stored_relation.h"
#include "workload/generator.h"

namespace tempo {
namespace {

/// One full page of bench records (key:int64, pad:string).
Page FillPage(const Schema& schema, uint64_t tuple_bytes) {
  Page page;
  int64_t key = 0;
  while (true) {
    Tuple t = MakeBenchTuple(key, Interval(key * 10, key * 10 + 500),
                             tuple_bytes);
    std::string record;
    t.SerializeTo(schema, &record);
    if (!page.AddRecord(record).has_value()) break;
    ++key;
  }
  return page;
}

void BM_PageDecodeViews(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, static_cast<uint64_t>(state.range(0)));
  PageTupleArena arena;
  for (auto _ : state) {
    arena.Clear();
    auto n = StoredRelation::DecodePageViews(schema, page, &arena);
    benchmark::DoNotOptimize(n.ok());
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_PageDecodeViews)->Arg(64)->Arg(256);

// Key-hash throughput: the probe loop's inner operation, over the record
// bytes in place.

void BM_KeyHashViews(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, static_cast<uint64_t>(state.range(0)));
  const std::vector<size_t> key_attrs = {0};
  PageTupleArena arena;
  for (auto _ : state) {
    arena.Clear();
    auto n = StoredRelation::DecodePageViews(schema, page, &arena);
    benchmark::DoNotOptimize(n.ok());
    size_t h = 0;
    for (const TupleView& v : arena.views()) h ^= v.HashAttrs(key_attrs);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_KeyHashViews)->Arg(64)->Arg(256);

// Interval-only access (partition routing reads nothing else).

void BM_IntervalScanViews(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, 64);
  const RecordLayout& layout = schema.layout();
  for (auto _ : state) {
    Chronon acc = 0;
    for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
      std::string_view rec = page.GetRecord(slot);
      auto v = TupleView::Make(layout, rec.data(), rec.size());
      benchmark::DoNotOptimize(v.ok());
      acc += v->interval().start();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_IntervalScanViews);

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_decode")
