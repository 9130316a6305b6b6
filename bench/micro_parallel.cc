// Microbenchmarks: wall-clock scaling of the morsel-driven parallel layer
// — the thread-pool primitives at 1/2/4/8 threads, and the radix bucket
// probe, the one executor phase left on the pool, at 1/2/4 threads.
//
// Threading is result-neutral (same output bytes, same charged I/O), so
// the *only* signal here is wall time. Speedups require physical cores:
// on a single-core host the >1-thread configurations measure dispatch
// overhead, not scaling.

#include <benchmark/benchmark.h>

#include "micro_util.h"

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

/// The in-memory radix executor end to end, on inputs whose pages fit the
/// buffer-derived radix budget; the thread count is the axis. Only the
/// bucket probe runs on the pool — extraction, radix partitioning and
/// emission are serial — so `radix_probe_ms` (the probe span's wall time
/// in the last iteration) isolates the parallel phase.
void BM_RadixJoinThreads(benchmark::State& state) {
  static JoinFixture* fixture = JoinFixture::Make();
  if (fixture == nullptr) {
    state.SkipWithError("workload generation failed");
    return;
  }
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  Scheduler scheduler(SchedulerConfig{threads, /*morsel_pages=*/4});
  // Column state runs slightly past the input pages, so give the budget
  // twice the inputs' pages.
  const uint32_t buffer_pages =
      2 * (fixture->r->num_pages() + fixture->s->num_pages());
  uint64_t tuples = 0;
  double efficiency = 0.0;
  double probe_ms = 0.0;
  for (auto _ : state) {
    StoredRelation out(&fixture->disk, fixture->out_schema, "out");
    JoinRequest req;
    req.From(fixture->r.get(), fixture->s.get())
        .Using(JoinExecutor::kInMemoryRadix)
        .BufferPages(buffer_pages);
    ExecContext ctx;
    ctx.SetScheduler(&scheduler);
    auto stats = RunJoin(req, &out, &ctx);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    tuples = stats->output_tuples;
    benchmark::DoNotOptimize(tuples);
    if (stats->Has(Metric::kParallelEfficiency)) {
      efficiency = stats->Get(Metric::kParallelEfficiency);
    }
    const SpanNode* probe =
        ctx.tracer().root().FindPhase(Phase::kRadixProbe);
    if (probe != nullptr) probe_ms = probe->stats.wall_seconds * 1e3;
    fixture->disk.DeleteFile(out.file_id()).ok();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(tuples));
  state.counters["output_tuples"] = static_cast<double>(tuples);
  state.counters["radix_probe_ms"] = probe_ms;
  if (threads > 1) state.counters["parallel_efficiency"] = efficiency;
}
BENCHMARK(BM_RadixJoinThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_parallel")
