#include "service/query_service.h"

#include <chrono>
#include <utility>

#include "obs/explain.h"
#include "obs/export.h"

namespace tempo {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

const char* RunStateName(uint8_t state) {
  switch (state) {
    case 0:
      return "queued";
    case 1:
      return "running";
    case 2:
      return "finished";
    case 3:
      return "failed";
    case 4:
      return "cancelled";
  }
  return "?";
}

}  // namespace

// --- QueryProgress ---------------------------------------------------------

Json QueryProgress::ToJson() const {
  Json j = Json::Object();
  j.Set("query_id", query_id);
  j.Set("state", state);
  j.Set("phase", phase);
  j.Set("morsels_completed", morsels_completed);
  j.Set("morsels_total", morsels_total);
  j.Set("io", IoStatsToJson(io));
  j.Set("pages_reserved", static_cast<uint64_t>(pages_reserved));
  j.Set("pages_held", pages_held);
  j.Set("queue_position", static_cast<uint64_t>(queue_position));
  return j;
}

// --- QueryHandle -----------------------------------------------------------

QueryHandle::QueryHandle(QueryService* service, JoinRequest request,
                         TempRelation output, uint64_t query_id)
    : service_(service),
      request_(std::move(request)),
      output_(std::move(output)),
      query_id_(query_id) {}

QueryHandle::~QueryHandle() {
  service_->UnregisterHandle(this);
  Cancel();
  Wait().ok();
}

Status QueryHandle::Wait() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!joined_) {
    if (thread_.joinable()) thread_.join();  // publishes Run()'s writes
    joined_ = true;
  }
  return status_;
}

void QueryHandle::Cancel() { ticket_->Cancel(); }

QueryProgress QueryHandle::Progress() const {
  QueryProgress p;
  p.query_id = query_id_;
  const RunState state = state_.load(std::memory_order_acquire);
  p.state = RunStateName(static_cast<uint8_t>(state));
  const uint8_t phase = ctx_.tracer().live_phase();
  p.phase = phase == Tracer::kNoLivePhase
                ? ""
                : PhaseName(static_cast<Phase>(phase));
  p.morsels_completed = progress_.completed.load(std::memory_order_relaxed);
  p.morsels_total = progress_.total.load(std::memory_order_relaxed);
  p.io = accountant_.stats();  // mutex-guarded snapshot
  p.pages_reserved = ticket_->pages();
  p.pages_held = ticket_->granted();
  p.queue_position = service_->pool()->QueuePosition(ticket_.get());
  return p;
}

void QueryHandle::Run() {
  const auto t0 = std::chrono::steady_clock::now();
  Status admit = ticket_->Wait();
  const double wait_us = MicrosSince(t0);
  admission_wait_us_ = wait_us;
  if (!admit.ok()) {
    state_.store(RunState::kCancelled, std::memory_order_release);
    service_->flight()->Append(FlightEventKind::kQueryCancelled, query_id_);
    status_ = admit;
    service_->RecordOutcome(/*cancelled=*/true, wait_us, MicrosSince(t0));
    return;
  }
  state_.store(RunState::kRunning, std::memory_order_release);
  service_->flight()->Append(FlightEventKind::kQueryAdmitted, query_id_,
                             ticket_->pages());

  // A fresh accountant per query, bound to this coordinator thread, where
  // all of the query's charged I/O happens: the query's head positions
  // evolve exactly as in a standalone run, so its charged IoStats are
  // identical at any concurrency level. The telemetry layer only ever
  // *reads* this accountant (Progress, DumpStats), so enabling it cannot
  // perturb the charged counts.
  Disk* disk = service_->disk();
  accountant_.set_head_model(disk->base_accountant().head_model());
  StatusOr<JoinRunStats> result = Status::Internal("query did not run");
  {
    ScopedAccountantBinding binding(disk, &accountant_);
    ScopedMorselProgress morsel_binding(&progress_);
    ctx_.SetScheduler(service_->scheduler());
    ctx_.BindAccountant(&accountant_);
    ctx_.tracer().SetFlightRecorder(service_->flight(), query_id_);
    ScopedPoolRegistration pool_reg(&ctx_,
                                    service_->pool()->buffer_manager());
    result = RunJoin(request_, output_.get(), &ctx_);
  }
  // Return the reservation before bookkeeping so queued queries start
  // as early as possible.
  ticket_->Release();
  if (result.ok()) {
    stats_ = std::move(result).value();
    status_ = Status::OK();
    state_.store(RunState::kFinished, std::memory_order_release);
  } else {
    status_ = result.status();
    state_.store(RunState::kFailed, std::memory_order_release);
  }
  const double latency_us = MicrosSince(t0);
  service_->RecordOutcome(/*cancelled=*/false, wait_us, latency_us);
  service_->OnQueryFinished(this, wait_us, latency_us);
}

// --- Session ---------------------------------------------------------------

StatusOr<std::unique_ptr<QueryHandle>> Session::Submit(
    const JoinRequest& request, const std::string& output_name) {
  if (request.r == nullptr || request.s == nullptr) {
    return Status::InvalidArgument(
        "JoinRequest has no input relations (call From)");
  }
  const uint64_t query_id = service_->NextQueryId();
  // The submit event lands before the admission request: a fail-fast
  // rejection below leaves a submit/reject pair in the flight recorder,
  // which is exactly the evidence an operator needs for a query that
  // never ran.
  service_->flight()->Append(FlightEventKind::kQuerySubmitted, query_id,
                             request.options.buffer_pages);
  // Reserve first: an impossible reservation (more pages than the whole
  // pool) must fail fast instead of wedging the FIFO queue.
  auto ticket_or =
      service_->pool()->Request(request.options.buffer_pages, query_id);
  if (!ticket_or.ok()) {
    service_->OnQueryRejected(query_id, request.options.buffer_pages);
    return ticket_or.status();
  }
  std::unique_ptr<AdmissionTicket> ticket = std::move(ticket_or).value();

  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(request.r->schema(),
                                                 request.s->schema()));
  std::string name = output_name;
  if (name.empty()) {
    name = "s" + std::to_string(id_) + ".q" + std::to_string(next_query_) +
           ".out";
  }
  ++next_query_;
  TempRelation output(
      new StoredRelation(service_->disk(), layout.output, name));
  std::unique_ptr<QueryHandle> handle(
      new QueryHandle(service_, request, std::move(output), query_id));
  handle->ticket_ = std::move(ticket);
  service_->RegisterHandle(handle.get());
  handle->thread_ = std::thread([raw = handle.get()] { raw->Run(); });
  return handle;
}

StatusOr<StoredRelation*> Session::Relation(const std::string& name) const {
  return service_->Lookup(name);
}

// --- QueryService ----------------------------------------------------------

StatusOr<std::unique_ptr<QueryService>> QueryService::Create(
    Disk* disk, const QueryServiceOptions& options) {
  if (disk == nullptr) {
    return Status::InvalidArgument("QueryService needs a disk");
  }
  if (options.pool_pages == 0) {
    return Status::InvalidArgument(
        "QueryService needs a non-empty buffer pool");
  }
  TEMPO_ASSIGN_OR_RETURN(std::unique_ptr<Scheduler> scheduler,
                         Scheduler::Create(options.scheduler));
  TelemetryConfig telemetry = options.telemetry;
  if (!telemetry.enabled()) {
    TEMPO_ASSIGN_OR_RETURN(telemetry, TelemetryConfig::FromEnv());
  }
  std::unique_ptr<QueryService> service(new QueryService(
      disk, std::move(scheduler), options.pool_pages, telemetry));
  if (!telemetry.jsonl_path.empty()) {
    TEMPO_ASSIGN_OR_RETURN(service->sink_,
                           TelemetrySink::Open(telemetry.jsonl_path));
    QueryService* raw = service.get();
    service->sampler_ = std::make_unique<MetricsSampler>(
        telemetry.sampler_period_ms, service->sink_.get(),
        [raw] { return raw->SampleTelemetry(); });
  }
  if (!telemetry.flight_path.empty()) {
    FlightRecorder::InstallFatalSignalDump(&service->flight_,
                                           telemetry.flight_path);
  }
  return service;
}

QueryService::QueryService(Disk* disk, std::unique_ptr<Scheduler> scheduler,
                           uint32_t pool_pages,
                           const TelemetryConfig& telemetry)
    : disk_(disk),
      scheduler_(std::move(scheduler)),
      pool_(disk, pool_pages),
      telemetry_(telemetry),
      flight_(telemetry.flight_events) {
  pool_.SetFlightRecorder(&flight_);
}

QueryService::~QueryService() {
  // Order matters: the sampler's callback reads this service, so it must
  // stop before anything else is torn down; the signal handler holds a
  // raw recorder pointer, so disarm it before the recorder dies.
  if (sampler_ != nullptr) sampler_->Stop();
  pool_.SetFlightRecorder(nullptr);
  if (!telemetry_.flight_path.empty()) {
    FlightRecorder::InstallFatalSignalDump(nullptr, "");
    flight_.DumpFile(telemetry_.flight_path).ok();
  }
}

Status QueryService::Register(StoredRelation* relation) {
  if (relation == nullptr) {
    return Status::InvalidArgument("cannot register a null relation");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = catalog_.emplace(relation->name(), relation);
  if (!inserted) {
    return Status::InvalidArgument("relation already registered: " +
                                   relation->name());
  }
  return Status::OK();
}

StatusOr<StoredRelation*> QueryService::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation registered as: " + name);
  }
  return it->second;
}

Session QueryService::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  return Session(this, next_session_++);
}

MetricsRegistry QueryService::SnapshotMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsRegistry snapshot = metrics_;
  snapshot.Set(Metric::kAdmissionQueuePeak,
               static_cast<double>(pool_.queue_peak()));
  return snapshot;
}

GaugeSnapshot QueryService::SampleGauges() const {
  GaugeSnapshot g;
  g.Set(Gauge::kPoolPagesTotal, static_cast<double>(pool_.capacity_pages()));
  g.Set(Gauge::kPoolPagesAvailable,
        static_cast<double>(pool_.available_pages()));
  g.Set(Gauge::kAdmissionQueueDepth,
        static_cast<double>(pool_.queue_depth()));
  ThreadPool* workers = scheduler_->pool();
  g.Set(Gauge::kSchedulerRunQueue,
        workers == nullptr ? 0.0
                           : static_cast<double>(workers->queue_depth()));
  g.Set(Gauge::kSchedulerThreads,
        static_cast<double>(scheduler_->num_threads()));
  uint64_t queued = 0;
  uint64_t running = 0;
  {
    std::lock_guard<std::mutex> lock(handles_mu_);
    for (const auto& [id, handle] : handles_) {
      switch (handle->state_.load(std::memory_order_acquire)) {
        case QueryHandle::RunState::kQueued:
          ++queued;
          break;
        case QueryHandle::RunState::kRunning:
          ++running;
          break;
        default:
          break;
      }
    }
  }
  g.Set(Gauge::kQueriesQueued, static_cast<double>(queued));
  g.Set(Gauge::kQueriesRunning, static_cast<double>(running));
  {
    std::lock_guard<std::mutex> lock(mu_);
    g.Set(Gauge::kSessionsOpened, static_cast<double>(next_session_));
  }
  g.Set(Gauge::kSlowQueriesLogged,
        static_cast<double>(slow_queries_.load(std::memory_order_relaxed)));
  g.Set(Gauge::kFlightEventsAppended,
        static_cast<double>(flight_.events_appended()));
  return g;
}

Json QueryService::DumpStats() const {
  Json queries = Json::Array();
  {
    std::lock_guard<std::mutex> lock(handles_mu_);
    for (const auto& [id, handle] : handles_) {
      queries.Append(handle->Progress().ToJson());
    }
  }
  Json doc = Json::Object();
  doc.Set("queries", std::move(queries));
  doc.Set("gauges", SampleGauges().ToJson());
  doc.Set("metrics", MetricsToJson(SnapshotMetrics()));
  return doc;
}

std::string QueryService::RenderPrometheusText() const {
  const GaugeSnapshot gauges = SampleGauges();
  return RenderPrometheus(SnapshotMetrics(), &gauges);
}

Json QueryService::SampleTelemetry() const {
  Json sample = Json::Object();
  sample.Set("gauges", SampleGauges().ToJson());
  sample.Set("metrics", MetricsToJson(SnapshotMetrics()));
  return sample;
}

void QueryService::RecordOutcome(bool cancelled, double wait_us,
                                 double latency_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cancelled) {
    metrics_.Add(Metric::kQueriesCancelled, 1.0);
  } else {
    metrics_.Add(Metric::kQueriesCompleted, 1.0);
    metrics_.Record(Hist::kAdmissionWaitUs, wait_us);
  }
  metrics_.Record(Hist::kQueryLatencyUs, latency_us);
}

void QueryService::OnQueryFinished(QueryHandle* handle, double wait_us,
                                   double latency_us) {
  flight_.Append(FlightEventKind::kQueryFinished, handle->query_id_,
                 static_cast<uint64_t>(latency_us));
  if (handle->ctx_.metrics().Get(Metric::kRadixFallback) != 0.0) {
    flight_.Append(FlightEventKind::kExecutorFallback, handle->query_id_);
  }

  // Per-query trace file: under the concurrent service every query gets
  // its own "<base>.q<id>.<ext>" file, so one TEMPO_TRACE_OUT setting no
  // longer makes N queries clobber a single path.
  const std::string trace_base = TraceOutPath();
  if (!trace_base.empty()) {
    WriteTraceFile(handle->ctx_,
                   PerQueryTracePath(trace_base, handle->query_id_))
        .ok();
  }

  if (telemetry_.slow_query_log &&
      latency_us >= static_cast<double>(telemetry_.slow_query_ms) * 1000.0) {
    slow_queries_.fetch_add(1, std::memory_order_relaxed);
    flight_.Append(FlightEventKind::kSlowQuery, handle->query_id_,
                   static_cast<uint64_t>(latency_us));
    if (sink_ != nullptr) {
      const JoinRequest& req = handle->request_;
      Json request = Json::Object();
      request.Set("executor", JoinExecutorName(req.executor));
      request.Set("kind", JoinKindName(req.options.join_kind));
      request.Set("predicate", req.options.predicate.Name());
      request.Set("buffer_pages",
                  static_cast<uint64_t>(req.options.buffer_pages));
      if (req.r != nullptr) request.Set("r", req.r->name());
      if (req.s != nullptr) request.Set("s", req.s->name());

      Json record = Json::Object();
      record.Set("type", "slow_query");
      record.Set("query_id", handle->query_id_);
      record.Set("latency_us", latency_us);
      record.Set("wait_us", wait_us);
      record.Set("request", std::move(request));
      record.Set("io", IoStatsToJson(handle->accountant_.stats()));
      record.Set("metrics", MetricsToJson(handle->ctx_.metrics()));
      record.Set("explain", ExplainAnalyze(handle->ctx_));
      sink_->Append(record).ok();
    }
  }
}

void QueryService::OnQueryRejected(uint64_t query_id, uint32_t pages) {
  flight_.Append(FlightEventKind::kQueryRejected, query_id, pages);
  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.Add(Metric::kQueriesCancelled, 1.0);
  }
  // A rejection is exactly the "what led up to this?" moment the flight
  // recorder exists for — dump it now, while the evidence is fresh.
  if (!telemetry_.flight_path.empty()) {
    flight_.DumpFile(telemetry_.flight_path).ok();
  }
}

void QueryService::RegisterHandle(QueryHandle* handle) {
  std::lock_guard<std::mutex> lock(handles_mu_);
  handles_[handle->query_id_] = handle;
}

void QueryService::UnregisterHandle(QueryHandle* handle) {
  std::lock_guard<std::mutex> lock(handles_mu_);
  handles_.erase(handle->query_id_);
}

}  // namespace tempo
