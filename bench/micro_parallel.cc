// Microbenchmarks: dispatch overhead of the morsel-driven parallel layer
// (ParallelFor over the thread pool) at 1/2/4/8 threads. No executor phase
// runs on the pool, so there is no join to time here; the concurrent query
// service's throughput is measured by service_throughput instead.
//
// The only signal is wall time. Speedups require physical cores: on a
// single-core host the >1-thread configurations measure dispatch
// overhead, not scaling.

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

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

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_parallel")
