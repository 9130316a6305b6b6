// Bench: concurrent query service throughput. N mixed joins (partition,
// sort-merge, nested-loop, planner-picked) are submitted at once through
// one QueryService whose shared buffer pool admits two reservations at a
// time — the rest wait in the FIFO admission queue. Each query runs on
// its own thread.
//
// Reported per executor class: summed output cardinality and charged I/O
// ops, which are deterministic (each query runs against a private
// accountant, so concurrency cannot perturb them — bench_compare gates
// these), and the planner's pick for the auto queries. Reported for the
// service: queries/sec and p50/p99 query latency and admission wait from
// the service's LogHistogram metrics, plus the admission queue peak — all
// timing-dependent, named so the regression gate skips them as volatile.

#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "core/planner.h"
#include "service/query_service.h"

namespace tempo::bench {
namespace {

constexpr uint32_t kQueryBufferPages = 32;
constexpr int kQueries = 16;

int Run() {
  const uint32_t scale = BenchScale();
  PrintHeader("service_throughput: " + std::to_string(kQueries) +
              " concurrent mixed joins, shared pool + FIFO admission "
              "(scale 1/" + std::to_string(scale) + ")");

  BenchOutput out("service_throughput");
  out.SetConfig("seed", 41.0);
  out.SetConfig("cost_model_ratio", 5.0);
  out.SetConfig("queries", static_cast<double>(kQueries));
  out.SetConfig("query_buffer_pages", static_cast<double>(kQueryBufferPages));

  Disk disk;
  // 1/16th of the paper's relation size per side even at scale=1: the
  // bench's axis is concurrency, not cardinality.
  WorkloadSpec spec = PaperWorkload(scale * 16, 16000, /*seed=*/41);
  auto r_or = GenerateRelation(&disk, spec, "r");
  spec.seed = 1041;
  auto s_gen_or = GenerateRelation(&disk, spec, "s_gen");
  if (!r_or.ok() || !s_gen_or.ok()) {
    std::fprintf(stderr, "workload generation failed\n");
    return 1;
  }
  // Rename s's pad attribute so only "key" is a join attribute.
  Schema s_schema({{"key", ValueType::kInt64}, {"spad", ValueType::kString}});
  StoredRelation s(&disk, s_schema, "s");
  {
    auto tuples = (*s_gen_or)->ReadAll();
    if (!tuples.ok() || !s.AppendAll(*tuples).ok() || !s.Flush().ok()) {
      std::fprintf(stderr, "building s failed\n");
      return 1;
    }
    disk.DeleteFile((*s_gen_or)->file_id()).ok();
  }

  QueryServiceOptions service_options;
  // Two reservations fit; the other queries queue — the admission path is
  // part of what this bench exercises.
  service_options.pool_pages = 2 * kQueryBufferPages;
  auto service_or = QueryService::Create(&disk, service_options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s\n", service_or.status().ToString().c_str());
    return 1;
  }
  QueryService* service = service_or->get();
  Session session = service->OpenSession();

  struct Mix {
    JoinExecutor executor;
    const char* label;
  };
  const Mix mixes[] = {
      {JoinExecutor::kPartition, "partition"},
      {JoinExecutor::kSortMerge, "sort-merge"},
      {JoinExecutor::kNestedLoop, "nested-loop"},
      {JoinExecutor::kAuto, "auto"},
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<QueryHandle>> handles;
  for (int q = 0; q < kQueries; ++q) {
    const Mix& mix = mixes[q % (sizeof(mixes) / sizeof(mixes[0]))];
    JoinRequest request;
    request.From(r_or->get(), &s)
        .Using(mix.executor)
        .BufferPages(kQueryBufferPages)
        .Model(CostModel::Ratio(5.0));
    auto handle = session.Submit(request);
    if (!handle.ok()) {
      std::fprintf(stderr, "%s\n", handle.status().ToString().c_str());
      return 1;
    }
    handles.push_back(*std::move(handle));
  }

  std::vector<double> tuples_by_mix(4, 0.0);
  std::vector<double> io_ops_by_mix(4, 0.0);
  // The planner's pick for the auto queries (JoinAlgorithm's encoding), so
  // the regression gate sees a silent change of kAuto's choice.
  double auto_pick = -1.0;
  for (size_t q = 0; q < handles.size(); ++q) {
    Status st = handles[q]->Wait();
    if (!st.ok()) {
      std::fprintf(stderr, "query %zu failed: %s\n", q,
                   st.ToString().c_str());
      return 1;
    }
    tuples_by_mix[q % 4] +=
        static_cast<double>(handles[q]->stats().output_tuples);
    io_ops_by_mix[q % 4] += handles[q]->stats().io.total_ops();
    if (mixes[q % 4].executor == JoinExecutor::kAuto) {
      auto_pick = handles[q]->stats().Get(Metric::kPlannedAlgorithm);
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const double qps = kQueries / wall_seconds;

  MetricsRegistry metrics = service->SnapshotMetrics();
  const LogHistogram& latency = metrics.histogram(Hist::kQueryLatencyUs);
  const LogHistogram& wait = metrics.histogram(Hist::kAdmissionWaitUs);

  TextTable table({"mix", "queries", "output tuples", "io ops"});
  for (size_t m = 0; m < 4; ++m) {
    const std::string label = mixes[m].label;
    out.Add(label, "output_tuples", tuples_by_mix[m]);
    out.Add(label, "io_ops", io_ops_by_mix[m]);
    if (mixes[m].executor == JoinExecutor::kAuto) {
      out.Add(label, "planned_algorithm", auto_pick);
    }
    table.AddRow({label, std::to_string(kQueries / 4),
                  Fmt(tuples_by_mix[m]), Fmt(io_ops_by_mix[m])});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("auto queries planned: %s\n",
              JoinAlgorithmName(static_cast<JoinAlgorithm>(auto_pick)));

  out.Add("service", "queries_completed",
          metrics.Get(Metric::kQueriesCompleted));
  out.Add("service", "wall_seconds", wall_seconds);
  out.Add("service", "queries_per_second", qps);
  out.Add("service", "p50_query_latency_us", ApproxQuantile(latency, 0.5));
  out.Add("service", "p99_query_latency_us", ApproxQuantile(latency, 0.99));
  out.Add("service", "p50_admission_wait_us", ApproxQuantile(wait, 0.5));
  out.Add("service", "p99_admission_wait_us", ApproxQuantile(wait, 0.99));
  out.Add("service", "admission_queue_peak",
          metrics.Get(Metric::kAdmissionQueuePeak));

  // Telemetry side outputs (enabled via TEMPO_TELEMETRY_OUT /
  // TEMPO_SLOW_QUERY_MS / TEMPO_FLIGHT_OUT). The bench keys below are all
  // named to match IsVolatileBenchKey, so a telemetry-enabled run stays
  // comparable against the committed telemetry-off baselines.
  if (service->sampler() != nullptr) {
    out.Add("service", "telemetry_samples",
            static_cast<double>(service->sampler()->ticks()));
  }
  if (service->telemetry_config().enabled()) {
    out.Add("service", "flight_events_appended",
            static_cast<double>(service->flight()->events_appended()));
    out.Add("service", "slow_queries_logged",
            static_cast<double>(service->slow_queries_logged()));
  }
  const std::string& jsonl_path = service->telemetry_config().jsonl_path;
  if (!jsonl_path.empty()) {
    // One Prometheus text-exposition scrape next to the JSONL stream.
    const std::string prom_path = jsonl_path + ".prom";
    std::ofstream prom(prom_path, std::ios::binary | std::ios::trunc);
    prom << service->RenderPrometheusText();
    prom.flush();
    if (prom) {
      std::printf("telemetry: JSONL at %s, Prometheus exposition at %s\n",
                  jsonl_path.c_str(), prom_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", prom_path.c_str());
    }
  }

  std::printf(
      "%d queries in %.3f s — %.1f queries/sec\n"
      "query latency p50 %.0f us, p99 %.0f us (log-bucket upper bounds)\n"
      "admission wait p50 %.0f us, p99 %.0f us; queue peak %.0f\n",
      kQueries, wall_seconds, qps, ApproxQuantile(latency, 0.5),
      ApproxQuantile(latency, 0.99), ApproxQuantile(wait, 0.5),
      ApproxQuantile(wait, 0.99), metrics.Get(Metric::kAdmissionQueuePeak));
  return out.Finish();
}

}  // namespace
}  // namespace tempo::bench

int main() { return tempo::bench::Run(); }
