// Microbenchmarks: wall-clock scaling of the morsel-driven parallel layer
// — the thread-pool primitives, Grace partitioning, and the partition-join
// probe phase at 1/2/4/8 threads.
//
// Threading is result-neutral (same output bytes, same charged I/O), so
// the *only* signal here is wall time. Speedups require physical cores:
// on a single-core host the >1-thread configurations measure dispatch
// overhead, not scaling.

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include "core/partition_join.h"
#include "obs/exec_context.h"
#include "parallel/parallel_for.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"
#include "service/join_request.h"
#include "workload/generator.h"

namespace tempo {
namespace {

void BM_ParallelForDispatch(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  ThreadPool pool(threads);
  for (auto _ : state) {
    uint64_t checksum = 0;
    ParallelFor(threads > 1 ? &pool : nullptr, 1024, 4,
                [&](size_t m, size_t begin, size_t end) -> Status {
                  // Tiny body: measures pure dispatch/merge overhead.
                  benchmark::DoNotOptimize(m + begin + end);
                  return Status::OK();
                })
        .ok();
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

struct JoinFixture {
  Disk disk;
  std::unique_ptr<StoredRelation> r;
  std::unique_ptr<StoredRelation> s;
  Schema out_schema;

  static JoinFixture* Make() {
    auto* f = new JoinFixture();
    WorkloadSpec spec;
    spec.num_tuples = 16384;
    spec.num_long_lived = 2048;
    spec.lifespan = 1000000;
    spec.distinct_keys = 1024;
    spec.tuple_bytes = 128;
    spec.seed = 11;
    auto r = GenerateRelation(&f->disk, spec, "r");
    spec.seed = 1011;
    auto s_gen = GenerateRelation(&f->disk, spec, "s");
    if (!r.ok() || !s_gen.ok()) {
      delete f;
      return nullptr;
    }
    f->r = *std::move(r);
    // Rename s's pad attribute so only "key" joins.
    Schema s_schema(
        {{"key", ValueType::kInt64}, {"spad", ValueType::kString}});
    f->s = std::make_unique<StoredRelation>(&f->disk, s_schema, "s2");
    auto tuples = (*s_gen)->ReadAll();
    if (!tuples.ok()) {
      delete f;
      return nullptr;
    }
    for (const Tuple& t : *tuples) {
      if (!f->s->Append(t).ok()) {
        delete f;
        return nullptr;
      }
    }
    if (!f->s->Flush().ok()) {
      delete f;
      return nullptr;
    }
    f->disk.DeleteFile((*s_gen)->file_id()).ok();
    auto layout = DeriveNaturalJoinLayout(f->r->schema(), f->s->schema());
    if (!layout.ok()) {
      delete f;
      return nullptr;
    }
    f->out_schema = layout->output;
    return f;
  }
};

/// End-to-end partition join (partitioning + probe) at a fixed memory
/// budget that forces several partitions; the thread count is the axis.
/// Only Grace partitioning runs on the pool: the joinPartitions probe runs
/// inline on the calling thread at every thread count, so the axis times
/// parallel partitioning plus a serial probe.
void BM_PartitionJoinThreads(benchmark::State& state) {
  static JoinFixture* fixture = JoinFixture::Make();
  if (fixture == nullptr) {
    state.SkipWithError("workload generation failed");
    return;
  }
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  Scheduler scheduler(SchedulerConfig{threads, /*morsel_pages=*/4});
  uint64_t tuples = 0;
  double efficiency = 0.0;
  for (auto _ : state) {
    StoredRelation out(&fixture->disk, fixture->out_schema, "out");
    JoinRequest req;
    req.From(fixture->r.get(), fixture->s.get())
        .Using(JoinExecutor::kPartition)
        .BufferPages(64);
    ExecContext ctx;
    ctx.SetScheduler(&scheduler);
    auto stats = RunJoin(req, &out, &ctx);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    tuples = stats->output_tuples;
    if (stats->Has(Metric::kParallelEfficiency)) {
      efficiency = stats->Get(Metric::kParallelEfficiency);
    }
    fixture->disk.DeleteFile(out.file_id()).ok();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(tuples));
  state.counters["output_tuples"] = static_cast<double>(tuples);
  if (threads > 1) state.counters["parallel_efficiency"] = efficiency;
}
BENCHMARK(BM_PartitionJoinThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Grace partitioning alone (decode + route on workers).
void BM_GracePartitionThreads(benchmark::State& state) {
  static JoinFixture* fixture = JoinFixture::Make();
  if (fixture == nullptr) {
    state.SkipWithError("workload generation failed");
    return;
  }
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  Scheduler scheduler(SchedulerConfig{threads, /*morsel_pages=*/4});
  std::vector<Chronon> boundaries;
  const Chronon span = 1500000;
  for (int i = 1; i < 8; ++i) boundaries.push_back(i * span / 8);
  auto spec_or = PartitionSpec::FromBoundaries(boundaries);
  if (!spec_or.ok()) {
    state.SkipWithError("bad partition spec");
    return;
  }
  PartitionSpec spec = *std::move(spec_or);
  for (auto _ : state) {
    auto parts = GracePartition(fixture->r.get(), spec, 64,
                                PlacementPolicy::kLastOverlap, "bench.part",
                                &scheduler, nullptr);
    if (!parts.ok()) {
      state.SkipWithError(parts.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_GracePartitionThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_parallel")
