// Microbenchmarks: temporal aggregation (the endpoint sweep).

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include "common/random.h"
#include "query/temporal_aggregate.h"

namespace tempo {
namespace {

Schema NumSchema() {
  return Schema({{"key", ValueType::kInt64}, {"amount", ValueType::kInt64}});
}

std::vector<Tuple> MakeTuples(size_t n, int64_t keys, uint64_t seed) {
  Random rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Chronon s = rng.UniformRange(0, 100000);
    out.push_back(Tuple({Value(static_cast<int64_t>(rng.Uniform(keys))),
                         Value(rng.UniformRange(0, 1000))},
                        Interval(s, s + rng.UniformRange(0, 500))));
  }
  return out;
}

void BM_TemporalAggregateCount(benchmark::State& state) {
  auto tuples = MakeTuples(static_cast<size_t>(state.range(0)), 10, 3);
  AggregationSpec spec;
  spec.fn = AggregateFn::kCount;
  spec.group_by = {0};
  for (auto _ : state) {
    auto result = TemporalAggregate(NumSchema(), tuples, spec);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TemporalAggregateCount)->Arg(1024)->Arg(16384);

void BM_TemporalAggregateMin(benchmark::State& state) {
  auto tuples = MakeTuples(16384, 10, 4);
  AggregationSpec spec;
  spec.fn = AggregateFn::kMin;
  spec.value_attr = 1;
  for (auto _ : state) {
    auto result = TemporalAggregate(NumSchema(), tuples, spec);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_TemporalAggregateMin);

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_aggregate")
