// Concurrent query service: several sessions submit valid-time joins at
// once against shared relations. Each admitted query reserves its whole
// buffer budget in the shared pool (excess queries wait in FIFO order),
// and each admitted query runs on its own thread — yet every query's
// output and charged I/O are identical to running it alone.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/concurrent_service

#include <cstdio>
#include <memory>
#include <vector>

#include "service/query_service.h"
#include "workload/generator.h"

using namespace tempo;

int main() {
  Disk disk;

  // Two generated relations sharing only the "key" attribute.
  WorkloadSpec spec;
  spec.num_tuples = 4096;
  spec.num_long_lived = 256;
  spec.lifespan = 100000;
  spec.distinct_keys = 512;
  spec.tuple_bytes = 64;
  spec.seed = 3;
  auto r = GenerateRelation(&disk, spec, "r");
  TEMPO_CHECK(r.ok());
  spec.seed = 1003;
  auto s_gen = GenerateRelation(&disk, spec, "s_gen");
  TEMPO_CHECK(s_gen.ok());
  Schema s_schema({{"key", ValueType::kInt64}, {"spad", ValueType::kString}});
  StoredRelation s(&disk, s_schema, "s");
  auto s_tuples = (*s_gen)->ReadAll();
  TEMPO_CHECK(s_tuples.ok());
  TEMPO_CHECK(s.AppendAll(*s_tuples).ok());
  TEMPO_CHECK(s.Flush().ok());

  // One service: a shared buffer pool with admission control. A pool of
  // 96 pages admits three 32-page queries at once; the rest queue FIFO.
  QueryServiceOptions options;
  options.pool_pages = 96;
  auto service = QueryService::Create(&disk, options);
  TEMPO_CHECK(service.ok());
  TEMPO_CHECK((*service)->Register(r->get()).ok());
  TEMPO_CHECK((*service)->Register(&s).ok());

  Session session = (*service)->OpenSession();

  // Submit eight joins at once: different executors, same inputs. Submit
  // returns immediately; each QueryHandle is a future over its result.
  const JoinExecutor executors[] = {
      JoinExecutor::kAuto,      JoinExecutor::kPartition,
      JoinExecutor::kSortMerge, JoinExecutor::kNestedLoop,
      JoinExecutor::kAuto,      JoinExecutor::kPartition,
      JoinExecutor::kSortMerge, JoinExecutor::kAuto,
  };
  std::vector<std::unique_ptr<QueryHandle>> handles;
  for (JoinExecutor executor : executors) {
    JoinRequest request;
    request.From(r->get(), &s).Using(executor).BufferPages(32);
    auto handle = session.Submit(request);
    TEMPO_CHECK(handle.ok());
    handles.push_back(*std::move(handle));
  }

  for (size_t i = 0; i < handles.size(); ++i) {
    Status st = handles[i]->Wait();
    TEMPO_CHECK(st.ok());
    std::printf("query %zu (%-11s): %8llu tuples, waited %8.0f us, io %s\n",
                i, JoinExecutorName(executors[i]),
                static_cast<unsigned long long>(
                    handles[i]->stats().output_tuples),
                handles[i]->admission_wait_us(),
                handles[i]->stats().io.ToString().c_str());
  }

  MetricsRegistry metrics = (*service)->SnapshotMetrics();
  std::printf("\ncompleted: %.0f, admission queue peak: %.0f\n",
              metrics.Get(Metric::kQueriesCompleted),
              metrics.Get(Metric::kAdmissionQueuePeak));
  return 0;
}
