#ifndef TEMPO_SERVICE_QUERY_SERVICE_H_
#define TEMPO_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/statusor.h"
#include "obs/exec_context.h"
#include "obs/telemetry.h"
#include "parallel/scheduler.h"
#include "service/join_request.h"
#include "service/shared_buffer_pool.h"
#include "storage/stored_relation.h"

namespace tempo {

class QueryService;
class Session;

/// Configuration of a QueryService.
struct QueryServiceOptions {
  /// Logical buffer pages shared by all concurrent queries; each admitted
  /// query reserves its whole buffer_pages budget against this.
  uint32_t pool_pages = 4096;

  /// Worker-thread configuration, resolved against TEMPO_BENCH_THREADS by
  /// Scheduler::Create (conflicting settings are an error).
  SchedulerConfig scheduler;

  /// Telemetry knobs. Left default-constructed (nothing enabled), Create
  /// resolves them from the environment (TelemetryConfig::FromEnv, strict
  /// parsing); a programmatically-filled config wins over the
  /// environment. The flight recorder itself is always on — these knobs
  /// only govern where (and whether) its dumps and the JSONL stream land.
  TelemetryConfig telemetry;
};

/// One point-in-time view of a submitted query, safe to take while the
/// query runs (every field reads an atomic or a mutex-guarded snapshot;
/// nothing here perturbs charged I/O). Returned by QueryHandle::Progress
/// and aggregated by QueryService::DumpStats.
struct QueryProgress {
  uint64_t query_id = 0;
  /// "queued" | "running" | "finished" | "failed" | "cancelled".
  const char* state = "queued";
  /// Most recently entered executor phase ("" before the first span).
  const char* phase = "";
  /// Live morsel counters: completed bodies / dispatched-so-far total
  /// across every parallel region the query has entered. The total grows
  /// as the query reaches new regions.
  uint64_t morsels_completed = 0;
  uint64_t morsels_total = 0;
  /// Charged I/O on the query's private accountant so far.
  IoStats io;
  /// The admission reservation: its size, whether it is currently held,
  /// and (while queued) the 1-based FIFO position (0 = not queued).
  uint32_t pages_reserved = 0;
  bool pages_held = false;
  size_t queue_position = 0;

  Json ToJson() const;
};

/// One submitted join: a future over the join's result. Submit returns
/// immediately; the query runs on its own coordinator thread (admission
/// wait included), every phase of it serially on that thread.
///
/// The handle owns the output relation and the final stats. Wait() blocks
/// until the query finishes; Cancel() aborts a query still waiting in the
/// admission queue (a running query is past cancellation — the paper's
/// algorithms have no safe preemption points). Destroying the handle
/// cancels-if-queued, joins, and deletes the output file: read or copy
/// the rows before letting the handle go.
class QueryHandle {
 public:
  ~QueryHandle();

  QueryHandle(const QueryHandle&) = delete;
  QueryHandle& operator=(const QueryHandle&) = delete;

  /// Blocks until the query completes (or its cancellation lands) and
  /// returns the execution status. Idempotent.
  Status Wait();

  /// Cancels the query if it is still queued for admission; its
  /// reservation slot is released immediately so queries behind it can
  /// run. No effect once admitted.
  void Cancel();

  /// The result relation; rows are valid only after Wait() returned OK,
  /// and the relation (file included) lives as long as the handle.
  StoredRelation* output() { return output_.get(); }

  /// The run's stats; valid only after Wait() returned OK.
  const JoinRunStats& stats() const { return stats_; }

  /// Microseconds this query spent queued for admission (valid after
  /// Wait()).
  double admission_wait_us() const { return admission_wait_us_; }

  /// Service-wide id of this query (tags its flight-recorder events and
  /// its per-query trace file).
  uint64_t query_id() const { return query_id_; }

  /// Live progress snapshot, safe to call from any thread at any time —
  /// including concurrently with the query's own execution.
  QueryProgress Progress() const;

 private:
  friend class Session;
  friend class QueryService;

  enum class RunState : uint8_t {
    kQueued,
    kRunning,
    kFinished,
    kFailed,
    kCancelled,
  };

  QueryHandle(QueryService* service, JoinRequest request,
              TempRelation output, uint64_t query_id);

  void Run();  // thread body

  QueryService* service_;
  JoinRequest request_;
  TempRelation output_;
  std::unique_ptr<AdmissionTicket> ticket_;  // written before thread start
  const uint64_t query_id_;

  /// Live-progress state, readable while Run() executes. The accountant
  /// and context are members (not Run() locals) so Progress() can read
  /// charged I/O and the live phase mid-flight; both are only *written*
  /// by the query's own threads.
  std::atomic<RunState> state_{RunState::kQueued};
  IoAccountant accountant_;
  ExecContext ctx_;
  MorselProgress progress_;

  std::mutex mu_;
  bool joined_ = false;
  Status status_ = Status::OK();
  JoinRunStats stats_;
  double admission_wait_us_ = 0.0;
  std::thread thread_;
};

/// A client's handle into the service: a factory for queries over the
/// service's registered (shared, immutable) relations. Sessions are
/// lightweight — state lives in the service — and must not outlive it.
class Session {
 public:
  /// Submits a join for concurrent execution. The output relation is
  /// created on the service's disk with the derived natural-join schema,
  /// named after the session and a per-session query counter (override
  /// with `output_name`). Fails fast (without queueing) when the request
  /// is malformed or its reservation exceeds the whole pool.
  StatusOr<std::unique_ptr<QueryHandle>> Submit(
      const JoinRequest& request, const std::string& output_name = "");

  /// Looks up a relation registered with the service.
  StatusOr<StoredRelation*> Relation(const std::string& name) const;

  uint64_t id() const { return id_; }

 private:
  friend class QueryService;
  Session(QueryService* service, uint64_t id)
      : service_(service), id_(id) {}

  QueryService* service_;
  uint64_t id_;
  uint64_t next_query_ = 0;
};

/// The concurrent query service: one shared scheduler (work-stealing
/// thread pool), one shared buffer pool with strict-FIFO admission
/// control, and a catalog of shared immutable input relations. Sessions
/// submit JoinRequests; each query runs with a private IoAccountant bound
/// to its coordinator thread, so its output pages and charged IoStats are
/// byte-identical to running the same request alone (see DESIGN.md §4h).
class QueryService {
 public:
  /// Resolves the scheduler config (TEMPO_BENCH_THREADS conflicts are an
  /// error) and builds the service.
  static StatusOr<std::unique_ptr<QueryService>> Create(
      Disk* disk, const QueryServiceOptions& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers a relation under its name for lookup by sessions. The
  /// relation must stay alive and unmodified while the service runs.
  Status Register(StoredRelation* relation);

  StatusOr<StoredRelation*> Lookup(const std::string& name) const;

  ~QueryService();

  Session OpenSession();

  Disk* disk() { return disk_; }
  Scheduler* scheduler() { return scheduler_.get(); }
  SharedBufferPool* pool() { return &pool_; }

  /// The always-on flight recorder of lifecycle events.
  FlightRecorder* flight() { return &flight_; }

  /// The JSONL sink behind TEMPO_TELEMETRY_OUT; null when not configured.
  TelemetrySink* telemetry_sink() { return sink_.get(); }

  /// The background sampler; null when no JSONL sink is configured.
  MetricsSampler* sampler() { return sampler_.get(); }

  const TelemetryConfig& telemetry_config() const { return telemetry_; }

  /// Snapshot of the service's lifetime metrics (queries completed /
  /// cancelled, admission queue peak, wait and latency histograms).
  MetricsRegistry SnapshotMetrics() const;

  /// One reading of every declared service gauge (pool occupancy, queue
  /// depths, live query counts, ...). What the sampler snapshots each
  /// tick; safe to call concurrently with execution.
  GaugeSnapshot SampleGauges() const;

  /// Everything at once, as one JSON document: per-query Progress() of
  /// every live handle (ordered by query id), the gauge snapshot, and the
  /// metrics snapshot. Safe to call concurrently with execution.
  Json DumpStats() const;

  /// The service's state in the Prometheus text exposition format
  /// (SnapshotMetrics + SampleGauges through RenderPrometheus).
  std::string RenderPrometheusText() const;

  /// Queries captured by the slow-query log so far.
  uint64_t slow_queries_logged() const {
    return slow_queries_.load(std::memory_order_relaxed);
  }

 private:
  friend class QueryHandle;
  friend class Session;

  QueryService(Disk* disk, std::unique_ptr<Scheduler> scheduler,
               uint32_t pool_pages, const TelemetryConfig& telemetry);

  /// Called by each query's thread as it finishes (MetricsRegistry
  /// scalars are not thread-safe; the service serializes them here).
  void RecordOutcome(bool cancelled, double wait_us, double latency_us);

  /// Post-run bookkeeping on the query's thread: flight finish/fallback
  /// events, the slow-query log, the per-query trace file.
  void OnQueryFinished(QueryHandle* handle, double wait_us,
                       double latency_us);

  /// Fail-fast rejection path: flight reject event + dump (the wedged
  /// state a flight recorder exists to capture).
  void OnQueryRejected(uint64_t query_id, uint32_t pages);

  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void RegisterHandle(QueryHandle* handle);
  void UnregisterHandle(QueryHandle* handle);

  /// The sampler's per-tick record: {"gauges": ..., "metrics": ...}.
  Json SampleTelemetry() const;

  Disk* disk_;
  std::unique_ptr<Scheduler> scheduler_;
  SharedBufferPool pool_;

  TelemetryConfig telemetry_;
  FlightRecorder flight_;
  std::unique_ptr<TelemetrySink> sink_;
  std::unique_ptr<MetricsSampler> sampler_;
  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<uint64_t> slow_queries_{0};

  mutable std::mutex mu_;
  std::unordered_map<std::string, StoredRelation*> catalog_;
  MetricsRegistry metrics_;
  uint64_t next_session_ = 0;

  /// Live handles for DumpStats, keyed by query id (ordered so dumps are
  /// deterministic). A handle registers on Submit and unregisters first
  /// thing in its destructor, so the map never holds a dying handle.
  mutable std::mutex handles_mu_;
  std::map<uint64_t, QueryHandle*> handles_;
};

}  // namespace tempo

#endif  // TEMPO_SERVICE_QUERY_SERVICE_H_
